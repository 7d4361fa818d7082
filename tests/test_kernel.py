from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from evokernel.augment import TemporalEpisode, generate_episode
from evokernel.embedding import MetricConfig, _count_distances, _graph_counts, _wl_counts, wl_embed
from evokernel.errors import ContractError
from evokernel.experiment import ExperimentConfig
from evokernel.gdtw import build_warping_matrix, gdtw_distance
from evokernel.kernel import (
    _prefix_distance_matrices,
    clip_psd,
    distance_matrix,
    evolution_kernel,
)

from .conftest import star, triangle
from .oracles import reference_prefix_distances

CFG = MetricConfig()


def _prefixes(episodes, step_counts):
    """``_prefix_distance_matrices`` of the episodes' snapshot count rows."""
    counts, sq = _graph_counts([snap for e in episodes for snap in e.snapshots], CFG)
    return _prefix_distance_matrices(counts, sq, len(episodes[0].times), step_counts)


@pytest.fixture
def three_episodes():
    times = np.array([0.0, 0.5, 1.0])
    graphs = [triangle(), star(3), star(5)]
    return [generate_episode(g, times, seed=9, graph_index=i) for i, g in enumerate(graphs)]


@pytest.fixture(scope="module")
def mutag_episodes(mutag):
    """The episodes of a default MUTAG run at seed 42: 188 graphs, 11 steps."""
    cfg = ExperimentConfig(seed=42)
    return [
        generate_episode(g, cfg.time_grid(), cfg.boltzmann_config(), cfg.u0, cfg.seed, graph_index=i)
        for i, g in enumerate(mutag.graphs)
    ]


def test_single_episode_matrix(three_episodes):
    d = distance_matrix(three_episodes[:1], CFG)
    assert np.array_equal(d, np.zeros((1, 1)))


def test_duplicate_episodes_give_zero_matrix(three_episodes):
    e = three_episodes[0]
    d = distance_matrix([e, e], CFG)
    assert np.array_equal(d, np.zeros((2, 2)))


def test_matrix_matches_per_pair_alignment(three_episodes):
    d = distance_matrix(three_episodes, CFG)
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(3))
    for i in range(3):
        for j in range(i + 1, 3):
            pair = gdtw_distance(build_warping_matrix(three_episodes[i], three_episodes[j], CFG))
            assert d[i, j] == pytest.approx(pair.distance, abs=1e-12)


def test_mismatched_grids_rejected(three_episodes):
    other = generate_episode(triangle(), np.array([0.0, 1.0]), seed=9)
    with pytest.raises(ContractError):
        distance_matrix([three_episodes[0], other], CFG)


def test_episodes_without_snapshots_rejected():
    empty = TemporalEpisode(source=triangle(), times=np.array([]), snapshots=[], seed=0)
    with pytest.raises(ContractError, match="episodes have no snapshots"):
        distance_matrix([empty, empty], CFG)


def test_no_episodes_give_an_empty_matrix():
    assert distance_matrix([]).shape == (0, 0)


def test_matrix_equals_alignment_of_each_block(three_episodes):
    times = np.array([0.0, 0.5, 1.0])
    episodes = three_episodes + [
        generate_episode(g, times, seed=2, graph_index=7 + i)
        for i, g in enumerate([star(4), triangle(), star(2)])
    ]
    n = len(episodes)
    d = distance_matrix(episodes, CFG)
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                m = build_warping_matrix(episodes[i], episodes[j], CFG)
                expected[i, j] = gdtw_distance(m).distance
    assert np.array_equal(d, expected)


def test_prefix_distances_equal_distances_of_cut_episodes():
    times = np.linspace(0.0, 1.0, 6)
    graphs = [triangle(), star(3), star(5), star(2), triangle()]
    episodes = [
        generate_episode(g, times, seed=4, graph_index=i, cumulative=i % 2 == 1)
        for i, g in enumerate(graphs)
    ]
    prefixes = _prefixes(episodes, [1, 3, 6])
    assert sorted(prefixes) == [1, 3, 6]
    for s, d in prefixes.items():
        cut = [
            TemporalEpisode(e.source, e.times[:s], e.snapshots[:s], e.seed, e.kept_masks[:s])
            for e in episodes
        ]
        assert np.array_equal(d, distance_matrix(cut, CFG))
    assert np.array_equal(prefixes[6], distance_matrix(episodes, CFG))


# 151 steps: past 64 a block holds one episode, and past 128 one episode's rows outnumber
# ``_BLOCK_SNAPSHOTS``; the prefix step counts straddle both.
LONG_GRID, LONG_STEPS = {"time_length": 1.5, "time_interval": 0.01}, [1, 63, 64, 65, 127, 128, 129, 151]


@pytest.mark.parametrize(
    "graphs, grid, steps",
    [
        (188, {}, range(1, 12)),
        (6, LONG_GRID, LONG_STEPS),
        (6, {**LONG_GRID, "cumulative": True, "heat_method": "auto"}, LONG_STEPS),
    ],
    ids=["default-grid", "long-grid", "long-grid-cumulative-auto"],
)
def test_mutag_distances_match_the_per_length_reference(mutag, graphs, grid, steps):
    """The first MUTAG graphs' episodes at seed 42: the pipeline's prefix distances from masks,
    and ``distance_matrix`` of the whole grid, against the oracle's."""
    cfg = ExperimentConfig(seed=42, **grid)
    times = cfg.time_grid()
    episodes = [
        generate_episode(
            g, times, cfg.boltzmann_config(), cfg.u0, cfg.seed,
            graph_index=i, method=cfg.heat_method, cumulative=cfg.cumulative,
        )
        for i, g in enumerate(mutag.graphs[:graphs])
    ]
    assert len(times) == steps[-1]
    counts, sq = _wl_counts([e.source for e in episodes], CFG, [np.array(e.kept_masks) for e in episodes])
    prefixes = _prefix_distance_matrices(counts, sq, len(times), steps)
    reference = reference_prefix_distances(episodes, CFG, steps)
    for s in steps:
        assert np.max(np.abs(prefixes[s] - reference[s])) <= 1e-6
    assert np.max(np.abs(distance_matrix(episodes, CFG) - reference[steps[-1]])) <= 1e-6


def test_equal_mutag_snapshots_are_exactly_zero_apart(mutag_episodes):
    snapshots = [snap for e in mutag_episodes for snap in e.snapshots]
    embeddings = np.stack([wl_embed(snap, CFG).vector for snap in snapshots])
    _, group = np.unique(embeddings, axis=0, return_inverse=True)
    group = group.ravel()
    equal = group[:, None] == group[None, :]
    # 2,068 snapshots on the diagonal plus 394 ordered pairs of distinct ones
    assert equal.sum() == 2462
    counts, sq = _graph_counts(snapshots, CFG)
    assert np.all(_count_distances(counts, counts, sq, sq)[equal] == 0.0)


def _traced_peak(call):
    """``call()`` and the tracemalloc peak of the bytes it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distance_matrix_memory_stays_below_one_cross_block(mutag_episodes):
    rows = sum(len(e) for e in mutag_episodes)
    _, peak = _traced_peak(lambda: distance_matrix(mutag_episodes, CFG))
    assert peak < rows * rows * 8  # 34,212,992 bytes: one float64 (n*T)^2 block


@pytest.fixture(scope="module")
def mutag_counts(mutag_episodes):
    return _graph_counts([snap for e in mutag_episodes for snap in e.snapshots], CFG)


def test_counts_and_the_distance_stage_stay_below_float32_counts(mutag_episodes):
    """MUTAG's (2,068, 1,024) counts as float32 were 8.08 MiB. Counting peaks at 6 MiB at most,
    and the counts plus the peak of the distance blocks and alignment buffers stay within 8 MiB."""
    masks = [np.array(e.kept_masks) for e in mutag_episodes]
    (counts, sq), counting = _traced_peak(lambda: _wl_counts([e.source for e in mutag_episodes], CFG, masks))
    _, distances = _traced_peak(lambda: _prefix_distance_matrices(counts, sq, 11, [11]))
    assert counting <= 6 * 2 ** 20
    assert counts.nbytes + distances <= 8 * 2 ** 20


def test_wider_counts_give_the_uint8_prefix_distances(mutag_counts):
    """MUTAG's counts are uint8 (at most 28 nodes * 4 rounds); held as uint32, whose chunks
    are cast to float64, or as float64, they give the same prefix distances bit for bit."""
    counts, sq = mutag_counts
    assert counts.dtype == np.uint8
    steps = range(1, 12)
    narrow = _prefix_distance_matrices(counts, sq, 11, steps)
    for wide in (counts.astype(np.uint32), counts.astype(np.float64)):
        prefixes = _prefix_distance_matrices(wide, sq, 11, steps)
        for s in steps:
            assert np.array_equal(narrow[s], prefixes[s])


def test_prefix_step_counts_outside_the_grid_rejected(three_episodes):
    for steps in ([0], [4]):
        with pytest.raises(ContractError):
            _prefixes(three_episodes, steps)


def test_zero_distances_give_all_ones_kernel():
    ek = evolution_kernel(np.zeros((3, 3)), repair="none")
    assert np.array_equal(ek.k, np.ones((3, 3)))
    clipped = evolution_kernel(np.zeros((3, 3)), repair="clip")
    assert np.allclose(clipped.k, np.ones((3, 3)), atol=1e-12)


def test_forced_bandwidth_halves_kernel():
    s = 3.0
    d = np.array([[0.0, s * np.log(2.0)], [s * np.log(2.0), 0.0]])
    ek = evolution_kernel(d, gamma_scale=1.0 / np.log(2.0), repair="none")
    assert ek.sigma == pytest.approx(s, abs=1e-12)
    assert np.allclose(ek.k, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)


def test_unrepaired_kernel_invariants():
    rng = np.random.default_rng(31)
    d = rng.random((6, 6)) * 4.0
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    ek = evolution_kernel(d, repair="none")
    assert np.array_equal(np.diag(ek.k), np.ones(6))
    assert np.all(ek.k > 0.0)
    assert np.all(ek.k <= 1.0)
    # strictly monotone: a larger distance gives a smaller kernel entry
    flat_d = d[np.triu_indices(6, 1)]
    flat_k = ek.k[np.triu_indices(6, 1)]
    order = np.argsort(flat_d)
    assert np.all(np.diff(flat_k[order]) <= 0)


def test_clip_repair_forces_psd():
    rng = np.random.default_rng(32)
    d = rng.random((8, 8)) * 5.0
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    ek = evolution_kernel(d, repair="clip")
    eigs = np.linalg.eigvalsh(ek.k)
    assert eigs.min() >= -1e-8
    assert ek.psd_repair == "clip"


def test_clip_is_idempotent():
    rng = np.random.default_rng(33)
    raw = rng.standard_normal((7, 7))
    k = (raw + raw.T) / 2.0
    once = clip_psd(k)
    twice = clip_psd(once)
    assert np.max(np.abs(twice - once)) <= 1e-10


def test_scale_coherence():
    rng = np.random.default_rng(34)
    d = rng.random((5, 5)) * 2.0
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    base = evolution_kernel(d, gamma_scale=1.3, repair="none")
    scaled = evolution_kernel(10.0 * d, gamma_scale=1.3, repair="none")
    assert np.allclose(base.k, scaled.k, atol=1e-12)


def test_kernel_rejects_bad_options():
    with pytest.raises(ValueError):
        evolution_kernel(np.zeros((2, 2)), gamma_scale=0.0)
    with pytest.raises(ValueError):
        evolution_kernel(np.zeros((2, 2)), repair="shift")


@pytest.mark.parametrize(
    "d",
    [np.full((3, 3), np.nan), np.array([[0.0, -1.0], [-1.0, 0.0]]), np.zeros((2, 3)), np.zeros(3)],
    ids=["nan", "negative", "non-square", "one-dimensional"],
)
def test_kernel_rejects_bad_distances(d):
    with pytest.raises(ContractError):
        evolution_kernel(d)
