"""The numpy behaviours the package relies on, one small test each.

``pyproject.toml`` admits numpy >= 1.23. Each test checks one behaviour
directly on a few hand-made inputs and names the function that depends on
it, so that on another numpy a failure says where to look before any
fingerprint digest moves.
"""

from __future__ import annotations

import numpy as np
import pytest

from evokernel.graphs import _cut


def test_seed_sequence_pool_is_four_uint32_words():
    """``augment._snapshot_draws`` reads the public pool of ``SeedSequence(seed)``, four uint32
    words that depend on the seed alone, and mixes each snapshot's spawn key into it."""
    for seed in (0, 42, 2**32, 2**70):
        pool = np.random.SeedSequence(seed).pool
        assert pool.dtype == np.uint32 and pool.shape == (4,)
        assert np.array_equal(np.random.SeedSequence(seed).pool, pool)
    child = np.random.SeedSequence(entropy=42, spawn_key=(3, 1))
    assert not np.array_equal(child.pool, np.random.SeedSequence(42).pool)


def test_pcg64_state_dict_sets_the_stream():
    """``augment._snapshot_draws`` sets each stream through ``PCG64.state["state"]``, a dict of
    the 128-bit ``state`` and ``inc`` ints, and draws it with ``Generator.random(out=)``."""
    reference = np.random.PCG64(np.random.SeedSequence(7))
    state = reference.state
    assert state["bit_generator"] == "PCG64"
    assert set(state["state"]) == {"state", "inc"}
    expected = np.random.Generator(reference).random(5)

    bitgen = np.random.PCG64(0)
    replay = bitgen.state
    replay["state"] = dict(state["state"])
    bitgen.state = replay
    rows = np.empty((2, 5))
    np.random.Generator(bitgen).random(out=rows[1])
    assert np.array_equal(rows[1], expected)


def test_ragged_rows_raise_under_a_fixed_dtype():
    """``errors._array`` (behind ``reals``, ``integers`` and ``subgraph``'s mask) reads values
    as complex first, so that ragged rows raise on every numpy, not only from 1.24 on."""
    for ragged in ([[1.0], [1.0, 2.0]], [[0], [1, 1]], [[True], [True, False]]):
        with pytest.raises(ValueError):
            np.asarray(ragged, dtype=complex)
    assert np.asarray([[1, 2], [3, 4]], dtype=complex).shape == (2, 2)


def test_char_add_and_padded_cell_views_on_byte_strings():
    """``embedding._refine`` appends a separator to each label with ``np.char.add`` (``np.char``:
    numpy 1.23 has no ``np.strings``) and reads a row of those ragged ``S`` cells as one wider
    cell: the view keeps each short cell's NUL padding inside, ``.tolist()`` drops only the
    trailing NULs, and ``_refine`` removes the rest."""
    names = np.array([b"1", b"10", b"a3f"])
    assert names.dtype == np.dtype("S3")
    spelled = np.char.add(names, b"|")
    assert spelled.dtype == np.dtype("S4") and spelled.tolist() == [b"1|", b"10|", b"a3f|"]
    row = np.array([[b"1|", b"10,", b"a3f"]], dtype="S4")
    (signature,) = row.view("S12").ravel().tolist()
    assert signature == b"1|\x00\x0010,\x00a3f"  # 12 bytes less the last cell's one trailing NUL
    assert signature.replace(b"\x00", b"") == b"1|10,a3f"


def test_unique_inverse_on_byte_strings_and_wide_cell_views():
    """``embedding._initial_ids`` and ``_refine`` rank byte-string labels with
    ``np.unique(return_inverse=True)``, and ``_refine`` reads a row of ``S`` cells as one cell."""
    names, inverse = np.unique(np.array([b"2", b"10", b"2", b"9"]), return_inverse=True)
    assert names.tolist() == [b"10", b"2", b"9"]
    assert inverse.shape == (4,) and inverse.tolist() == [1, 0, 1, 2]
    cells = np.array([[b"ab", b"cd"], [b"ef", b"gh"]])
    assert cells.view("S4").ravel().tolist() == [b"abcd", b"efgh"]


def test_frombuffer_reads_big_endian_words():
    """``embedding._buckets`` reads the 8-byte BLAKE2b digests as big-endian integers."""
    raw = bytes(range(1, 9)) + bytes(8)
    words = np.frombuffer(raw, ">u8")
    assert words.tolist() == [int.from_bytes(bytes(range(1, 9)), "big"), 0]
    assert (words % np.uint64(7)).astype(np.int64).tolist() == [words[0].item() % 7, 0]


def test_ufunc_dtype_and_out_widen_before_computing():
    """``embedding._count_distances`` doubles a float32 Gram with ``np.multiply(...,
    dtype=np.float64)`` and writes a bool column plus a float64 row into a float64 ``out=``."""
    gram = np.array([[2.0**24 - 1.0, 3.0]], dtype=np.float32)
    doubled = np.multiply(gram, 2.0, dtype=np.float64)
    assert doubled.dtype == np.float64 and doubled.tolist() == [[2.0**25 - 2.0, 6.0]]
    out = np.empty((2, 3))
    np.add(np.array([True, False])[:, None], np.array([1.0, 0.0, 1.0]), out=out)
    assert out.tolist() == [[2.0, 1.0, 2.0], [1.0, 0.0, 1.0]]


def test_copyto_casts_unsigned_counts_to_float32_exactly():
    """``kernel._prefix_distance_matrices`` casts each column chunk of the unsigned WL counts
    into one reused float32 buffer with ``np.copyto``: below 2^24 every count keeps its value."""
    buffer = np.empty((3, 4), np.float32)
    for dtype in (np.uint8, np.uint16, np.uint32):
        top = min(int(np.iinfo(dtype).max), 2 ** 24 - 1)
        counts = np.array([[0, 1, top // 2, top - 1], [top, 3, 0, 7]], dtype=dtype)
        np.copyto(buffer[:2], counts)
        assert buffer[:2].tolist() == counts.tolist()


def test_float32_integer_grams_are_equal_in_column_chunks():
    """``kernel._prefix_distance_matrices`` multiplies a block's float32 rows by the later
    columns one chunk at a time, the chunk as the left operand: while the Gram of the
    integer-valued operands is below 2^24, every chunking and either order give its bits."""
    rng = np.random.default_rng(9)
    a = rng.integers(0, 112, (21, 1024)).astype(np.float32)
    b = rng.integers(0, 112, (300, 1024)).astype(np.float32)
    whole = a @ b.T
    assert whole.max() < 2 ** 24
    assert whole.tolist() == (a.astype(np.int64) @ b.astype(np.int64).T).tolist()
    for width in (1, 7, 64, 256):
        chunks = [b[k : k + width] for k in range(0, len(b), width)]
        assert np.array_equal(np.concatenate([a @ c.T for c in chunks], axis=1), whole)
        assert np.array_equal(np.concatenate([c @ a.T for c in chunks]), whole.T)


def test_uint8_row_over_a_float64_array_is_float64():
    """``embedding.wl_embed`` divides a uint8 count row by its norm as a one-element float64
    array, which promotes by dtype on every numpy (a float scalar gave float16 before 2.0)."""
    row = np.array([0, 3, 112], dtype=np.uint8)
    vector = row / np.sqrt(np.array([12553.0]))
    assert vector.dtype == np.float64
    norm = float(np.sqrt(12553.0))
    assert vector.tolist() == [0.0, 3 / norm, 112 / norm]


def test_stacked_eigh_and_matmul_give_each_matrix_its_own_bits():
    """``augment._episode_masks`` decomposes and heats equal-size graphs as one stack through
    ``heat._decompose`` and ``heat._heat_vectors``: each matrix must get the bits of a
    one-matrix call."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 17, 64, 240):
        a = rng.standard_normal((3, n, n))
        stack = a + a.swapaxes(-1, -2)
        w, v = np.linalg.eigh(stack)
        u = rng.standard_normal((3, n, 2))
        product = v @ u
        for k in range(3):
            wk, vk = np.linalg.eigh(stack[k])
            assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
            assert np.array_equal(product[k], v[k] @ u[k])


def test_broadcast_mask_reads_like_an_all_true_mask():
    """``embedding._graph_counts`` passes each whole graph to ``graphs._cut`` and
    ``embedding._wl_counts`` as a read-only ``np.broadcast_to`` row: fancy indexing,
    ``np.cumsum``, ``sum`` and ``.ravel()`` must read it as the all-true array it stands for."""
    mask = np.broadcast_to(True, (1, 4))
    assert not mask.flags.writeable
    whole = np.ones((1, 4), dtype=bool)
    edges = np.array([[0, 1], [1, 3], [2, 3]])
    assert np.array_equal(mask[:, edges[:, 0]], whole[:, edges[:, 0]])
    assert np.cumsum(mask, axis=1).tolist() == [[1, 2, 3, 4]]
    assert mask.sum(axis=1).tolist() == [4]
    assert mask.ravel().tolist() == [True] * 4
    counts, ends = _cut(edges, mask)
    expected_counts, expected_ends = _cut(edges, whole)
    assert counts.tolist() == expected_counts.tolist() == [3]
    assert ends.tolist() == expected_ends.tolist() == edges.tolist()
