from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evokernel import augment, heat
from evokernel.augment import (
    BoltzmannConfig,
    HeatDistribution,
    drop_node,
    generate_episode,
    heat_distribution,
    snapshot_rng,
)
from evokernel.errors import ConfigError, ContractError
from evokernel.graphs import Graph, normalized_laplacian
from evokernel.heat import SMALL_TIME_DEFAULT, HeatState

from . import oracles
from .conftest import star
from .oracles import random_graph, reference_generate_episode

DEFAULTS = BoltzmannConfig()


def _dist(heat, a=-2.0, b=-2.0, t=1.0):
    return heat_distribution(HeatState(t=t, heat=np.asarray(heat, dtype=float)), BoltzmannConfig(a, b))


def test_uniform_heat_gives_uniform_distribution():
    dist = _dist([1.0, 1.0, 1.0])
    assert np.array_equal(dist.normed, np.ones(3))
    assert np.array_equal(dist.probs, np.full(3, dist.probs[0]))
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_two_node_closed_form():
    dist = _dist([2.0, 1.0])
    e2 = np.exp(2.0)
    assert np.allclose(dist.probs, [e2 / (e2 + 1.0), 1.0 / (e2 + 1.0)], atol=1e-12)
    assert np.allclose(dist.normed, [1.0, np.exp(-2.0)], atol=1e-12)
    assert dist.normed.max() == 1.0


def test_zero_weight_degenerates_to_uniform():
    dist = _dist([5.0, -3.0, 0.25], a=0.0)
    assert np.array_equal(dist.normed, np.ones(3))
    assert np.array_equal(dist.probs, np.full(3, dist.probs[0]))


@settings(max_examples=60, deadline=None)
@given(
    heat=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
    a=st.floats(-5.0, 5.0),
    b1=st.floats(-50.0, 50.0),
    b2=st.floats(-50.0, 50.0),
)
def test_bias_invariance_is_exact(heat, a, b1, b2):
    d1 = _dist(heat, a=a, b=b1)
    d2 = _dist(heat, a=a, b=b2)
    assert np.array_equal(d1.probs, d2.probs)
    assert np.array_equal(d1.normed, d2.normed)


@settings(max_examples=60, deadline=None)
@given(
    heat=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
    a=st.floats(-5.0, 5.0),
)
def test_distribution_invariants(heat, a):
    dist = _dist(heat, a=a)
    assert np.all(dist.probs > 0)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.normed.max() == 1.0
    assert np.all(dist.normed > 0)
    assert np.all(dist.normed <= 1.0)


def test_negative_weight_means_hotter_is_likelier():
    heat = np.array([0.5, 1.0, 2.0])
    dist = _dist(heat, a=-2.0)
    assert np.all(np.diff(dist.probs) > 0)


def test_non_finite_heat_rejected():
    with pytest.raises(ValueError):
        _dist([1.0, np.inf])


def test_columns_are_rescaled_as_heat_distribution_rescales_one_vector():
    heat = np.random.default_rng(5).normal(size=(7, 4))
    for a in (-2.0, 0.0, 60.0):
        normed = augment._rescaled(heat, a)
        for k in range(heat.shape[1]):
            assert np.array_equal(normed[:, k], _dist(heat[:, k], a=a).normed)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_episode_heat_is_checked_as_heat_distribution_checks_it(p3):
    """Non-finite heat is a ContractError; logits that overflow at a = 60 are a ConfigError."""
    with pytest.raises(ContractError, match="non-finite"):
        _dist([1.0, np.nan])
    with pytest.raises(ConfigError, match="overflows"):
        _dist([1e307, 0.0], a=60.0)
    for cumulative in (False, True):
        with pytest.raises(ConfigError, match="a=60.0 overflows"):
            generate_episode(p3, [0.0, 1.0], BoltzmannConfig(a=60.0), 1e307, cumulative=cumulative)


def test_drop_node_keeps_everything_at_probability_one(p3):
    dist = HeatDistribution(t=0.0, probs=np.full(3, 1 / 3), normed=np.ones(3))
    snap, keep = drop_node(p3, dist, np.random.default_rng(0))
    assert snap == p3
    assert keep.all()


def test_drop_node_empties_at_probability_zero(p3):
    dist = HeatDistribution(t=1.0, probs=np.full(3, 1 / 3), normed=np.zeros(3))
    snap, keep = drop_node(p3, dist, np.random.default_rng(0))
    assert snap.node_count == 0
    assert snap.edge_count == 0
    assert not keep.any()


def test_drop_node_length_mismatch(p3):
    dist = HeatDistribution(t=1.0, probs=np.ones(2) / 2, normed=np.ones(2))
    with pytest.raises(ValueError):
        drop_node(p3, dist, np.random.default_rng(0))


def test_drop_node_keep_rate_matches_bernoulli(p3):
    dist = HeatDistribution(t=1.0, probs=np.full(3, 1 / 3), normed=np.array([1.0, 0.5, 1.0]))
    rng = np.random.default_rng(1234)
    kept_middle = sum(drop_node(p3, dist, rng)[1][1] for _ in range(10_000))
    assert 0.49 <= kept_middle / 10_000 <= 0.51


def test_episode_of_single_time_is_the_source(p3):
    episode = generate_episode(p3, [0.0], DEFAULTS, 1.0, seed=5)
    assert len(episode) == 1
    assert episode.snapshots[0] == p3
    assert episode.kept_masks[0].all()


def test_episode_rejects_bad_grids(p3):
    with pytest.raises(ConfigError):
        generate_episode(p3, [0.5, 1.0], DEFAULTS, 1.0, seed=0)
    with pytest.raises(ConfigError):
        generate_episode(p3, [0.0, 0.5, 0.5], DEFAULTS, 1.0, seed=0)
    with pytest.raises(ConfigError):
        generate_episode(p3, [], DEFAULTS, 1.0, seed=0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigError, match="finite"):
            generate_episode(p3, [0.0, bad], DEFAULTS, 1.0, seed=0)


def test_episode_snapshots_are_subgraphs(mutag):
    g = mutag.graphs[0]
    times = np.arange(11) * 0.1
    episode = generate_episode(g, times, DEFAULTS, 1.0, seed=42)
    assert len(episode) == 11
    assert episode.snapshots[0] == g
    for snap, mask in zip(episode.snapshots, episode.kept_masks):
        assert snap.node_count == int(mask.sum())
        kept = np.flatnonzero(mask)
        source_edges = set(g.edges)
        for i, j in snap.edges:
            assert (int(kept[i]), int(kept[j])) in source_edges
        if g.node_labels is not None:
            assert snap.node_labels == tuple(g.node_labels[int(i)] for i in kept)


def test_episode_is_bit_reproducible(mutag):
    g = mutag.graphs[0]
    times = np.arange(6) * 0.2
    first = generate_episode(g, times, DEFAULTS, 1.0, seed=99, graph_index=3)
    second = generate_episode(g, times, DEFAULTS, 1.0, seed=99, graph_index=3)
    assert first.snapshots == second.snapshots
    for m1, m2 in zip(first.kept_masks, second.kept_masks):
        assert np.array_equal(m1, m2)
    different = generate_episode(g, times, DEFAULTS, 1.0, seed=100, graph_index=3)
    assert any(s1 != s2 for s1, s2 in zip(first.snapshots, different.snapshots))


def test_snapshot_rng_streams_are_independent():
    a = snapshot_rng(7, 0, 1).random(4)
    b = snapshot_rng(7, 1, 0).random(4)
    c = snapshot_rng(7, 0, 1).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def _stream_rows(seed, graph_index, n, steps):
    return np.array([snapshot_rng(seed, graph_index, k).random(n) for k in range(steps)]).reshape(steps, n)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**200),
    graphs=st.lists(st.tuples(st.integers(0, 2**70), st.integers(0, 60)), min_size=1, max_size=5),
    steps=st.integers(1, 12),
)
# Seeds of 4, 5 and 6 words with graph indices of 1, 2 and 3 words: the seed's word count sets
# the hash constant each spawn key starts from.
@example(seed=2**128 - 1, graphs=[(2**32 - 1, 3), (2**32, 2), (2**64, 4)], steps=2)
@example(seed=2**128, graphs=[(2**32 - 1, 3), (2**32, 2), (2**64, 4)], steps=2)
@example(seed=2**160 + 3, graphs=[(2**32 - 1, 3), (2**32, 2), (2**64, 4)], steps=2)
@example(seed=2**128, graphs=[(2**32, 3), (2**32 - 1, 0), (0, 60)], steps=12)
@example(seed=2**32 - 1, graphs=[(2**64, 1), (7, 2)], steps=1)
@example(seed=5, graphs=[(0, 0), (1, 3), (2, 0), (3, 0), (4, 2), (5, 0)], steps=3)
def test_snapshot_draws_equal_each_snapshot_stream(seed, graphs, steps):
    """Seeds of one to seven 32-bit words, graph indices of one to three, and graphs of 0 to
    60 nodes, with runs of 0-node graphs."""
    indices, counts = [i for i, _ in graphs], [n for _, n in graphs]
    drawn = list(augment._snapshot_draws(seed, indices, counts, steps))
    assert len(drawn) == len(graphs)
    for (i, n), draws in zip(graphs, drawn):
        assert draws.dtype == np.float64
        assert np.array_equal(draws, _stream_rows(seed, i, n, steps))


def test_snapshot_draws_are_exact_on_many_and_large_graphs():
    """300 graphs, two of them of 1,024 and 2,053 nodes, and one 1,500-node graph over
    401 steps: every draw equals its snapshot's stream."""
    steps = 5
    counts = np.random.default_rng(3).integers(0, 40, 300).tolist()
    counts[100], counts[200] = 1024, 2053
    drawn = list(augment._snapshot_draws(42, range(len(counts)), counts, steps))
    assert len(drawn) == len(counts)
    for i, (n, draws) in enumerate(zip(counts, drawn)):
        assert np.array_equal(draws, _stream_rows(42, i, n, steps))
    (draws,) = augment._snapshot_draws(7, [3], [1500], 401)
    assert np.array_equal(draws, _stream_rows(7, 3, 1500, 401))


def test_mean_snapshot_size_trends_down(mutag):
    g = mutag.graphs[0]
    times = np.arange(11) * 0.1
    sizes = np.zeros((100, 11))
    for s in range(100):
        episode = generate_episode(g, times, DEFAULTS, 1.0, seed=s)
        sizes[s] = [snap.node_count for snap in episode.snapshots]
    means = sizes.mean(axis=0)
    assert means[0] == g.node_count
    assert np.all(means[1:] <= means[:-1] + 0.5)
    assert means[-1] < means[0]


def test_star_center_is_kept_most_often():
    hub_graph = star(9)
    times = np.array([0.0, 4.0])
    kept_counts = np.zeros(10)
    for s in range(1000):
        episode = generate_episode(hub_graph, times, DEFAULTS, 1.0, seed=s)
        kept_counts += episode.kept_masks[1]
    assert kept_counts[0] == 1000  # the hottest node has rescaled probability 1
    assert np.all(kept_counts[0] > kept_counts[1:])


def test_cumulative_mode_nests_masks(mutag):
    g = mutag.graphs[1]
    times = np.arange(6) * 0.2
    episode = generate_episode(g, times, DEFAULTS, 1.0, seed=11, cumulative=True)
    assert episode.snapshots[0] == g
    for earlier, later in zip(episode.kept_masks, episode.kept_masks[1:]):
        assert np.all(earlier | ~later)  # later kept set is a subset
    again = generate_episode(g, times, DEFAULTS, 1.0, seed=11, cumulative=True)
    assert episode.snapshots == again.snapshots


def test_cumulative_mode_survives_total_wipeout(p3):
    # force everything dropped at step 1 by a synthetic rescaled probability of
    # zero: use an enormous positive weight so all non-max nodes vanish and
    # check that later steps tolerate small or empty survivors
    times = np.array([0.0, 1.0, 2.0])
    episode = generate_episode(p3, times, BoltzmannConfig(a=500.0, b=0.0), 1.0, seed=1, cumulative=True)
    assert len(episode) == 3
    for snap in episode.snapshots[1:]:
        assert snap.node_count <= p3.node_count


METHODS = ("exact", "taylor2", "fiedler", "auto")
# The grid run_experiment builds: k * interval, not a cumulative sum.
GRID = np.array([k * 0.1 for k in range(11)])


def assert_same_episode(episode, reference):
    assert np.array_equal(episode.times, reference.times)
    assert episode.snapshots == reference.snapshots
    assert len(episode.kept_masks) == len(reference.kept_masks)
    for mask, ref in zip(episode.kept_masks, reference.kept_masks):
        assert mask.dtype == bool
        assert np.array_equal(mask, ref)
    for snap, mask in zip(episode.snapshots, episode.kept_masks):
        assert snap.node_count == int(mask.sum())


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_every_mutag_episode_equals_the_reference(mutag, method, cumulative):
    for i, g in enumerate(mutag.graphs):
        kwargs = dict(graph_index=i, method=method, cumulative=cumulative)
        assert_same_episode(
            generate_episode(g, GRID, DEFAULTS, 1.0, 42, **kwargs),
            reference_generate_episode(g, GRID, DEFAULTS, 1.0, 42, **kwargs),
        )


class _WipeOut:
    """Stands in for a snapshot RNG: every draw is 1.0, so no node survives."""

    def random(self, n):
        return np.ones(n)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.sampled_from([0, 1, 2, 3, 5, 8, 13]),
    p=st.floats(0.0, 0.6),
    a=st.sampled_from([-2.0, 0.0, 2.0, 60.0]),
    method=st.sampled_from(METHODS),
    cumulative=st.booleans(),
    wipe_at=st.sampled_from([None, 0, 1, 3]),
)
def test_random_episode_equals_the_reference(seed, n, p, a, method, cumulative, wipe_at):
    """Isolated nodes, 0- and 1-node graphs, and a total wipe-out at step
    ``wipe_at`` (every later cumulative snapshot is then empty)."""
    g = random_graph(np.random.default_rng(seed), n, p, labels=seed % 2 == 0)
    times = np.array([0.0, 0.05, 0.3, 0.35, 2.0])
    cfg = BoltzmannConfig(a=a)

    def rng_at(s, index, k):
        return _WipeOut() if k == wipe_at else snapshot_rng(s, index, k)

    snapshot_draws = augment._snapshot_draws

    def draws_wiped(*args):
        for draws in snapshot_draws(*args):
            if wipe_at is not None:
                draws[wipe_at] = 1.0
            yield draws

    kwargs = dict(graph_index=seed % 7, method=method, cumulative=cumulative)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augment, "_snapshot_draws", draws_wiped)
        mp.setattr(oracles, "snapshot_rng", rng_at)
        episode = generate_episode(g, times, cfg, 1.0, seed, **kwargs)
        reference = reference_generate_episode(g, times, cfg, 1.0, seed, **kwargs)
    assert_same_episode(episode, reference)
    if wipe_at is not None:
        assert episode.snapshots[wipe_at].node_count == 0
        if cumulative:
            assert all(s.node_count == 0 for s in episode.snapshots[wipe_at:])


def assert_stacked_equals_the_oracle(graphs, times, seed, a, method, cumulative):
    """One ``_episode_masks`` call over ``graphs`` gives each graph the oracle's masks."""
    draws = augment._snapshot_draws(seed, range(len(graphs)), [g.node_count for g in graphs], len(times))
    masks = augment._episode_masks(graphs, np.asarray(times), a, 1.0, list(draws), method, cumulative)
    assert len(masks) == len(graphs)
    for i, (g, mask) in enumerate(zip(graphs, masks)):
        kwargs = dict(graph_index=i, method=method, cumulative=cumulative)
        reference = reference_generate_episode(g, times, BoltzmannConfig(a=a), 1.0, seed, **kwargs)
        assert mask.dtype == bool and mask.shape == (len(times), g.node_count)
        assert np.array_equal(mask, np.reshape(reference.kept_masks, mask.shape))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    sizes=st.lists(st.sampled_from([0, 1, 2, 3, 4, 6]), min_size=1, max_size=4),
    a=st.sampled_from([-2.0, 2.0, 60.0]),
    method=st.sampled_from(METHODS),
    cumulative=st.booleans(),
    long_grid=st.booleans(),
    cap=st.sampled_from([1, 40, augment._STACK_ENTRIES]),
)
def test_stacked_masks_equal_the_oracle(seed, sizes, a, method, cumulative, long_grid, cap):
    """Three random graphs of each size, so every size repeats, with 0- and 1-node graphs among
    them. The long grid reaches past 10 / lambda_1, where ``auto`` takes ``fiedler`` for some
    graphs of a size and ``exact`` for others; a cap of 1 or 40 entries splits a size's graphs
    into several stacks."""
    rng = np.random.default_rng(seed)
    graphs = [random_graph(rng, n, rng.uniform(0.2, 0.9), labels=True) for n in sizes for _ in range(3)]
    times = [0.0, 0.05, 0.3, 10.0, 30.0] if long_grid else [0.0, 0.05, 0.3, 0.35, 2.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augment, "_STACK_ENTRIES", cap)
        assert_stacked_equals_the_oracle(graphs, times, seed, a, method, cumulative)


@pytest.mark.parametrize("cumulative", [False, True])
def test_auto_picks_each_graph_its_own_formula_within_a_stack(cumulative):
    """At t = 10, past 10 / lambda_1 on K4 (lambda_1 = 4/3) but not on the 4-node path
    (lambda_1 = 1/2), one stack of both takes ``fiedler`` for one and ``exact`` for the other;
    under ``cumulative`` step 0 keeps every node, so step 1 heats the sources for t = 10."""
    k4, p4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]), Graph(4, [(0, 1), (1, 2), (2, 3)])
    spec = heat._decompose(np.stack([normalized_laplacian(k4), normalized_laplacian(p4)]))
    assert heat._formulas("auto", spec, [10.0]).ravel().tolist() == ["fiedler", "exact"]
    assert_stacked_equals_the_oracle([k4, p4, p4, k4], [0.0, 10.0], 3, -2.0, "auto", cumulative)


@pytest.fixture
def decompositions(monkeypatch):
    """The size of each matrix generate_episode decomposes, one entry per matrix of a stack."""
    calls = []
    original = augment._decompose

    def spy(lap):
        calls.extend([lap.shape[-1]] * len(lap))
        return original(lap)

    monkeypatch.setattr(augment, "_decompose", spy)
    return calls


@pytest.mark.parametrize("cumulative", [False, True])
def test_taylor2_never_decomposes(mutag, decompositions, cumulative):
    for i, g in enumerate(mutag.graphs[:20]):
        generate_episode(g, GRID, DEFAULTS, 1.0, 42, graph_index=i, method="taylor2", cumulative=cumulative)
    assert decompositions == []


@pytest.mark.parametrize("method", ["exact", "fiedler", "auto"])
def test_non_cumulative_decomposes_once_per_graph(mutag, decompositions, method):
    graphs = mutag.graphs[:20]
    for i, g in enumerate(graphs):
        generate_episode(g, GRID, DEFAULTS, 1.0, 42, graph_index=i, method=method)
    assert decompositions == [g.node_count for g in graphs]


def test_non_cumulative_auto_below_small_time_never_decomposes(mutag, decompositions):
    generate_episode(mutag.graphs[0], [0.0, 0.05, 0.09], DEFAULTS, 1.0, 42, method="auto")
    assert decompositions == []


@pytest.mark.parametrize("times", [GRID, np.array([k * 0.2 for k in range(6)])])
def test_cumulative_auto_decomposes_once_per_step_that_reads_the_spectrum(mutag, decompositions, times):
    expected = []
    for i, g in enumerate(mutag.graphs[:20]):
        episode = generate_episode(g, times, DEFAULTS, 1.0, 42, graph_index=i, method="auto", cumulative=True)
        inputs = [g] + episode.snapshots[:-1]
        increments = np.diff(times, prepend=0.0)
        expected += [
            s.node_count for s, dt in zip(inputs, increments) if s.node_count and dt >= SMALL_TIME_DEFAULT
        ]
    assert decompositions == expected
    assert len(expected) > 0


def test_steps_with_no_nodes_to_draw_from_neither_decompose_nor_draw(p3, decompositions, monkeypatch):
    """A cumulative step after a wipe-out, or any step of a 0-node source,
    keeps nothing without a decomposition or reading its draws."""
    snapshot_draws = augment._snapshot_draws

    def draws_wiped(*args):
        for draws in snapshot_draws(*args):
            draws[1] = 1.0  # step 1 keeps no node
            draws[2:] = 0.0  # would keep every node, if a later step read its row
            yield draws

    monkeypatch.setattr(augment, "_snapshot_draws", draws_wiped)
    episode = generate_episode(p3, GRID, DEFAULTS, 1.0, 42, cumulative=True)
    assert decompositions == [3, episode.snapshots[0].node_count]
    assert all(s.node_count == 0 for s in episode.snapshots[1:])

    decompositions.clear()
    for cumulative in (False, True):
        episode = generate_episode(Graph(0, []), GRID, DEFAULTS, 1.0, 42, cumulative=cumulative)
        assert [s.node_count for s in episode.snapshots] == [0] * len(GRID)
    assert decompositions == []
