from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evokernel import embedding
from evokernel.augment import TemporalEpisode
from evokernel.embedding import MetricConfig, _count_distances, _graph_counts, delta, wl_embed
from evokernel.errors import ContractError
from evokernel.gdtw import (
    _cumulative_costs,
    build_warping_matrix,
    cross_distances,
    gdtw_distance,
)
from evokernel.graphs import Graph
from evokernel.kernel import distance_matrix

from .conftest import star, triangle
from .oracles import (
    brute_force_gdtw,
    dict_wl_delta,
    path_is_admissible,
    random_graph,
    reference_wl_counts,
    scalar_gdtw_table,
)

CFG = MetricConfig()
WIDE = MetricConfig(dim=2 ** 20)


def _episode(snapshots) -> TemporalEpisode:
    times = np.arange(len(snapshots), dtype=float)
    return TemporalEpisode(
        source=snapshots[0],
        times=times,
        snapshots=list(snapshots),
        seed=0,
        kept_masks=[np.ones(s.node_count, dtype=bool) for s in snapshots],
    )


@pytest.fixture
def fixture_episodes():
    left = _episode([triangle(), star(3), Graph(2, [(0, 1)])])
    right = _episode([star(3), star(2), Graph(3, [(0, 1), (1, 2)])])
    return left, right


def test_identical_episodes_have_zero_diagonal(p3, k2):
    e = _episode([p3, k2, p3])
    m = build_warping_matrix(e, e)
    assert np.array_equal(np.diag(m), np.zeros(3))
    assert np.all(m >= 0)


def test_single_snapshot_matrix_is_delta(k2, p3):
    m = build_warping_matrix(_episode([k2]), _episode([p3]))
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(delta(k2, p3), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_delta_is_the_warping_matrix_entry(seed):
    rng = np.random.default_rng(90 + seed)
    graphs = [Graph(0, []), Graph(0, [], node_labels=[])]
    graphs += [random_graph(rng, int(rng.integers(1, 14)), 0.4, labels=bool(k % 2)) for k in range(8)]
    for cfg in (CFG, MetricConfig(wl_iterations=1, dim=16)):
        for a in graphs:
            for b in graphs:
                assert delta(a, b, cfg) == build_warping_matrix(_episode([a]), _episode([b]), cfg)[0, 0]


def test_matrix_matches_hand_oracle(fixture_episodes):
    left, right = fixture_episodes
    m = build_warping_matrix(left, right, WIDE)
    for i in range(3):
        for j in range(3):
            assert m[i, j] == pytest.approx(
                dict_wl_delta(left.snapshots[i], right.snapshots[j], 3), abs=1e-10
            )


def test_cross_distances_equal_the_plain_expression():
    rng = np.random.default_rng(80)
    emb1 = rng.standard_normal((40, 64))
    emb1 /= np.linalg.norm(emb1, axis=1, keepdims=True)
    emb2 = rng.standard_normal((25, 64))
    emb2 /= np.linalg.norm(emb2, axis=1, keepdims=True)
    for a, b in ((emb1, emb2), (emb1, emb1)):
        sq1 = (a ** 2).sum(axis=1)
        sq2 = (b ** 2).sum(axis=1)
        plain = np.sqrt(np.clip(sq1[:, None] + sq2[None, :] - 2.0 * (a @ b.T), 0.0, None))
        assert np.array_equal(cross_distances(a, b), plain)


@pytest.mark.parametrize("isolated, dtype", [(0, np.uint8), (1100, np.uint16), (4201, np.uint16)])
def test_count_grams_equal_python_int_grams(isolated, dtype):
    rng = np.random.default_rng(81)
    graphs = [
        random_graph(rng, int(rng.integers(0, 30)), 0.3, labels=bool(k % 2)) for k in range(8)
    ]
    if isolated:
        # 1,100 or 4,201 nodes * 4 rounds > 255: the counts need uint16. At 4,201 each
        # square, 4,201^2, is odd and above 2^24, so float32 operands would round the Gram.
        graphs.append(Graph(isolated, []))
    counts, sq = _graph_counts(graphs, CFG)
    assert counts.dtype == dtype
    rows = [reference_wl_counts(g, CFG.wl_iterations, CFG.dim) for g in graphs]
    gram = [[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows]
    wide = counts.astype(np.int64)
    assert (wide @ wide.T).tolist() == gram
    assert sq.tolist() == [gram[k][k] for k in range(len(rows))]
    # The distance formula's float64 operations on the exact Gram, one at a time.
    norms = np.sqrt(np.maximum(sq, 1.0)[:, None] * np.maximum(sq, 1.0))
    nonempty = (sq > 0).astype(np.float64)
    d2 = nonempty[:, None] + nonempty - 2.0 * np.array(gram, dtype=np.float64) / norms
    exact = np.sqrt(np.clip(d2, 0.0, None))
    assert np.array_equal(_count_distances(counts, counts, sq, sq), exact)


def test_count_distances_are_the_embedding_distances():
    rng = np.random.default_rng(82)
    graphs = [Graph(0, [])]
    graphs += [random_graph(rng, int(rng.integers(1, 15)), 0.4) for _ in range(12)]
    counts, sq = _graph_counts(graphs, CFG)
    d = _count_distances(counts, counts, sq, sq)
    emb = np.stack([wl_embed(g, CFG).vector for g in graphs])
    assert np.allclose(d, cross_distances(emb, emb), rtol=0.0, atol=1e-7)
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(len(graphs)))


def test_count_bound_is_checked_before_embedding(monkeypatch):
    def embed(*args):
        raise AssertionError("embedded a snapshot past the exact-count bound")

    monkeypatch.setattr(embedding, "_embed_batch", embed)
    huge = Graph(10 ** 8, [])  # (10^8 * 4)^2 > 2^53; no per-node memory
    episode = TemporalEpisode(source=huge, times=np.zeros(1), snapshots=[huge], seed=0)
    with pytest.raises(ContractError, match="2\\^53"):
        build_warping_matrix(episode, episode)
    with pytest.raises(ContractError, match="2\\^53"):
        distance_matrix([episode, episode])


def test_length_mismatch_is_contract_error(k2, p3):
    with pytest.raises(ContractError):
        build_warping_matrix(_episode([k2]), _episode([p3, p3]))


def test_identical_episodes_align_on_the_diagonal(p3, k2, c4):
    e = _episode([p3, k2, c4])
    result = gdtw_distance(build_warping_matrix(e, e))
    assert result.distance == 0.0
    assert result.path == ((0, 0), (1, 1), (2, 2))


def test_equal_costs_align_on_the_diagonal():
    # Every path costs 0: a tie between all three moves goes to the diagonal.
    assert gdtw_distance(np.zeros((3, 3))).path == ((0, 0), (1, 1), (2, 2))


def test_up_wins_a_tie_with_left():
    # From (2, 2) up and left both lead back at cost 0, and the diagonal costs 1.
    m = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert gdtw_distance(m).path == ((0, 0), (0, 1), (1, 2), (2, 2))


def test_two_by_two_prefers_free_diagonal():
    result = gdtw_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert result.distance == 0.0
    assert result.path == ((0, 0), (1, 1))


def test_cumulative_matrix_shape_and_border():
    result = gdtw_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert result.cumulative.shape == (3, 3)
    assert result.cumulative[0, 0] == 0.0
    assert np.all(np.isinf(result.cumulative[0, 1:]))
    assert np.all(np.isinf(result.cumulative[1:, 0]))
    assert result.distance == result.cumulative[-1, -1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dp_equals_exhaustive_enumeration(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(100):
        m = rng.random((n, n))
        result = gdtw_distance(m)
        assert result.distance == brute_force_gdtw(m)
        assert path_is_admissible(result.path, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dp_with_zero_cost_ties_equals_exhaustive_enumeration(n):
    # Small integer costs give many zero cells and many equal-cost
    # predecessors, and their sums are exact.
    rng = np.random.default_rng(2000 + n)
    for _ in range(50):
        m = rng.integers(0, 3, (n, n)).astype(float)
        result = gdtw_distance(m)
        assert result.distance == brute_force_gdtw(m)
        assert path_is_admissible(result.path, n)
        assert np.array_equal(result.cumulative, scalar_gdtw_table(m))


def test_table_equals_scalar_recurrence():
    rng = np.random.default_rng(79)
    for _ in range(50):
        m = rng.random((11, 11))
        m[rng.random((11, 11)) < 0.3] = 0.0
        assert np.array_equal(gdtw_distance(m).cumulative, scalar_gdtw_table(m))


@st.composite
def pair_major_stacks(draw):
    """(P, T, T) cost stacks whose cells come from a few values, zero among them."""
    steps, pairs = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    values = [0.0] + draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.array(values)[rng.integers(0, len(values), (pairs, steps, steps))]


@settings(max_examples=60, deadline=None)
@given(costs=pair_major_stacks())
@example(costs=np.array([[[0.0]], [[0.5]]]))
@example(costs=np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]]))
def test_diagonal_dp_equals_the_scalar_table_pair_by_pair(costs):
    steps = costs.shape[1]
    tables = [scalar_gdtw_table(m) for m in costs]
    for k, diagonal in enumerate(_cumulative_costs(costs)):
        rows = np.arange(max(0, k - steps), min(k, steps) + 1)
        for p, table in enumerate(tables):
            assert np.array_equal(diagonal[rows, p], table[rows, k - rows])
    assert k == 2 * steps


def test_recovered_path_cost_equals_distance():
    rng = np.random.default_rng(77)
    for _ in range(25):
        m = rng.random((7, 7))
        result = gdtw_distance(m)
        assert abs(sum(m[i, j] for i, j in result.path) - result.distance) <= 1e-10
        assert result.distance <= np.trace(m) + 1e-12  # the diagonal path is admissible
        assert 7 <= len(result.path) <= 13


def test_distance_symmetric_under_transpose():
    rng = np.random.default_rng(78)
    for _ in range(25):
        m = rng.random((6, 6))
        assert gdtw_distance(m).distance == pytest.approx(gdtw_distance(m.T).distance, abs=1e-12)


def test_alignment_distance_symmetric_between_episodes(fixture_episodes):
    left, right = fixture_episodes
    forward = gdtw_distance(build_warping_matrix(left, right)).distance
    backward = gdtw_distance(build_warping_matrix(right, left)).distance
    assert forward == pytest.approx(backward, abs=1e-12)


def test_appending_common_snapshot_keeps_distance(fixture_episodes, c4):
    left, right = fixture_episodes
    base = gdtw_distance(build_warping_matrix(left, right)).distance
    longer_left = _episode(left.snapshots + [c4])
    longer_right = _episode(right.snapshots + [c4])
    extended = gdtw_distance(build_warping_matrix(longer_left, longer_right)).distance
    assert extended == pytest.approx(base, abs=1e-10)


def test_rejects_bad_matrices():
    with pytest.raises(ContractError):
        gdtw_distance(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ContractError):
        gdtw_distance(np.array([[np.inf, 1.0], [1.0, 0.0]]))
    with pytest.raises(ContractError):
        gdtw_distance(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        gdtw_distance(np.zeros((0, 0)))
