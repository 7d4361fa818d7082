from __future__ import annotations

import hashlib
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evokernel import embedding
from evokernel.augment import generate_episode
from evokernel.embedding import (
    MAX_WL_ITERATIONS,
    MetricConfig,
    _wl_counts,
    delta,
    wl_embed,
)
from evokernel.errors import ConfigError, ContractError
from evokernel.experiment import ExperimentConfig
from evokernel.graphs import Graph, subgraph

from .conftest import star
from .oracles import (
    dict_wl_delta,
    permute_graph,
    random_graph,
    reference_wl_counts,
    reference_wl_embed,
    reference_wl_labels,
)

WIDE = MetricConfig(dim=2 ** 20)


def test_empty_graph_embeds_to_zero():
    emb = wl_embed(Graph(0, []))
    assert np.array_equal(emb.vector, np.zeros(1024))


def test_nonempty_embedding_is_unit_norm(p3):
    emb = wl_embed(p3)
    assert np.linalg.norm(emb.vector) == pytest.approx(1.0, abs=1e-12)


def test_isomorphic_graphs_embed_identically():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 9, 0.4, labels=True)
    relabeled = permute_graph(g, rng.permutation(9))
    assert np.array_equal(wl_embed(g).vector, wl_embed(relabeled).vector)


def test_distinct_degree_sequences_separate(k2, p3):
    assert not np.array_equal(wl_embed(k2).vector, wl_embed(p3).vector)
    assert delta(k2, p3) > 0.0


def test_delta_identity(p3):
    assert delta(p3, p3) == 0.0


def test_delta_to_empty_graph_is_one(p3):
    assert delta(p3, Graph(0, [])) == pytest.approx(1.0, abs=1e-12)
    assert delta(Graph(0, []), Graph(0, [])) == 0.0


def test_delta_matches_dictionary_oracle(k2, p3):
    assert delta(k2, p3, WIDE) == pytest.approx(dict_wl_delta(k2, p3, 3), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_delta_matches_dictionary_oracle_random(seed):
    rng = np.random.default_rng(400 + seed)
    g1 = random_graph(rng, int(rng.integers(1, 9)), 0.4, labels=bool(seed % 2))
    g2 = random_graph(rng, int(rng.integers(1, 9)), 0.4, labels=bool(seed % 2))
    cfg = MetricConfig(dim=2 ** 20, wl_iterations=2)
    assert delta(g1, g2, cfg) == pytest.approx(dict_wl_delta(g1, g2, 2), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_delta_symmetry_and_triangle(seed):
    rng = np.random.default_rng(seed)
    graphs = [random_graph(rng, int(rng.integers(0, 8)), 0.4) for _ in range(3)]
    d01 = delta(graphs[0], graphs[1])
    d10 = delta(graphs[1], graphs[0])
    assert d01 == d10
    d02 = delta(graphs[0], graphs[2])
    d12 = delta(graphs[1], graphs[2])
    assert d02 <= d01 + d12 + 1e-12


def test_embedding_is_deterministic(c4):
    assert np.array_equal(wl_embed(c4).vector, wl_embed(c4).vector)


def test_buckets_come_from_stable_hash(k2):
    # re-derive the expected nonzero coordinates straight from blake2b
    cfg = MetricConfig(dim=64, wl_iterations=1)
    expected = np.zeros(64)
    for round_index, labels in enumerate(reference_wl_labels(k2, 1)):
        for label in labels:
            digest = hashlib.blake2b(f"{round_index}:{label}".encode(), digest_size=8).digest()
            expected[int.from_bytes(digest, "big") % 64] += 1.0
    expected /= np.linalg.norm(expected)
    assert np.array_equal(wl_embed(k2, cfg).vector, expected)


def test_zero_iterations_uses_raw_labels_only():
    g1 = Graph(2, [(0, 1)], node_labels=[5, 5])
    g2 = Graph(2, [], node_labels=[5, 5])
    cfg = MetricConfig(wl_iterations=0)
    assert delta(g1, g2, cfg) == 0.0  # structure invisible without refinement
    assert delta(g1, g2, MetricConfig(wl_iterations=1)) > 0.0


def test_node_labels_override_degrees():
    labeled = Graph(3, [(0, 1), (1, 2)], node_labels=[4, 4, 4])
    unlabeled = Graph(3, [(0, 1), (1, 2)])
    assert delta(labeled, unlabeled) > 0.0


def test_dimension_must_be_positive():
    with pytest.raises(ConfigError):
        wl_embed(Graph(1, []), MetricConfig(dim=0))
    with pytest.raises(ConfigError):
        wl_embed(Graph(1, []), MetricConfig(wl_iterations=-1))


def test_refinement_depth_is_bounded():
    assert MetricConfig(wl_iterations=MAX_WL_ITERATIONS).validate().wl_iterations == MAX_WL_ITERATIONS
    with pytest.raises(ConfigError, match="refinement depth"):
        MetricConfig(wl_iterations=MAX_WL_ITERATIONS + 1).validate()


def test_numpy_integer_sizes_give_the_rows_of_python_ints():
    graphs = [Graph(3, [(0, 1), (1, 2)], node_labels=[4, 4, 4]), Graph(2, [(0, 1)])]
    typed = MetricConfig(wl_iterations=np.int32(2), dim=np.int64(64))
    plain = MetricConfig(2, 64)
    assert np.array_equal(_wl_counts(graphs, typed)[0], _wl_counts(graphs, plain)[0])
    for g in graphs:
        assert np.array_equal(wl_embed(g, typed).vector, wl_embed(g, plain).vector)


def _equals_reference(graphs, cfg) -> bool:
    """``_wl_counts`` gives the oracle's integer counts and their exact squared norms."""
    counts, sq = _wl_counts(graphs, cfg)
    rows = [reference_wl_counts(g, cfg.wl_iterations, cfg.dim) for g in graphs]
    return counts.tolist() == rows and sq.tolist() == [sum(x * x for x in r) for r in rows]


def test_unallocatable_counts_are_a_package_error():
    # numpy refuses the 4 PB allocation outright, so the peak RSS stays put.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with pytest.raises(ContractError, match="1 rows x 1000000000000000 buckets"):
        wl_embed(Graph(3, [(0, 1)]), MetricConfig(dim=10 ** 15))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak < 64 * 1024


def test_batch_equals_reference_on_every_mutag_snapshot(mutag):
    cfg = ExperimentConfig(seed=42)
    snapshots = [
        snap
        for i, g in enumerate(mutag.graphs)
        for snap in generate_episode(
            g, cfg.time_grid(), cfg.boltzmann_config(), cfg.u0, cfg.seed, graph_index=i
        ).snapshots
    ]
    assert len(snapshots) == 2068
    metric = cfg.metric_config()
    assert _equals_reference(snapshots, metric)
    for snap in snapshots:
        vector = reference_wl_embed(snap, metric.wl_iterations, metric.dim)
        assert np.array_equal(wl_embed(snap, metric).vector, vector)


@st.composite
def wide_graphs(draw):
    """Graphs of up to 24 nodes, some with labels or degrees of 10 and more,
    whose decimal strings sort differently from their values."""
    n = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    labels = draw(st.none() | st.lists(st.integers(-3, 120), min_size=n, max_size=n))
    return Graph(n, edges, labels)


@settings(max_examples=60, deadline=None)
@given(
    graphs=st.lists(wide_graphs(), min_size=1, max_size=6),
    iterations=st.integers(0, 3),
    dim=st.sampled_from([1, 7, 64, 1024]),
)
def test_batch_equals_reference_on_random_graphs(graphs, iterations, dim):
    assert _equals_reference(graphs, MetricConfig(wl_iterations=iterations, dim=dim))


def test_neighbour_labels_sort_as_strings():
    # "10" < "2" and "12" < "2": both orders differ from the numeric one.
    labelled = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)], node_labels=[2, 10, 2, 9, 10])
    # Node 1 has degree 2 and neighbours of degree 12 (the hub) and 2.
    degree_labelled = Graph(15, [(0, leaf) for leaf in range(1, 13)] + [(1, 13), (13, 14)])
    for g in (labelled, degree_labelled):
        for iterations in (1, 2):
            cfg = MetricConfig(wl_iterations=iterations, dim=2 ** 20)
            assert _equals_reference([g], cfg)


def test_batch_edge_cases_equal_reference():
    graphs = [
        Graph(0, []),
        Graph(3, []),  # isolated nodes, degree labels
        Graph(3, [], node_labels=[1, 1, 12]),
        Graph(0, [], node_labels=[]),
        Graph(4, [(0, 1), (1, 2)], node_labels=[2, 10, 2, 7]),  # one isolated node
        star(11),
        Graph(4, [(0, 1), (1, 2), (2, 3)], node_labels=[2 ** 70, -5, 3, 2 ** 70]),
        Graph(0, []),
    ]
    for cfg in (MetricConfig(), MetricConfig(wl_iterations=0, dim=5)):
        assert _equals_reference(graphs, cfg)
        for g in graphs:
            vector = reference_wl_embed(g, cfg.wl_iterations, cfg.dim)
            assert np.array_equal(wl_embed(g, cfg).vector, vector)
    counts, sq = _wl_counts([], MetricConfig(dim=8))
    assert counts.shape == (0, 8) and sq.shape == (0,)
    counts, sq = _wl_counts([Graph(0, [])] * 3, MetricConfig())
    assert np.array_equal(counts, np.zeros((3, 1024))) and np.array_equal(sq, np.zeros(3))


def test_row_depends_only_on_its_graph():
    rng = np.random.default_rng(11)
    graphs = [
        random_graph(rng, int(rng.integers(0, 12)), 0.4, labels=bool(k % 2)) for k in range(9)
    ]
    batch, sq = _wl_counts(graphs, MetricConfig())
    assert np.array_equal(_wl_counts(graphs[::-1], MetricConfig())[0][::-1], batch)
    for k, g in enumerate(graphs):
        assert np.array_equal(wl_embed(g).vector, batch[k] / np.sqrt(max(sq[k], 1.0)))
        assert np.array_equal(_wl_counts([graphs[-1], g, graphs[0]], MetricConfig())[0][1], batch[k])


def test_large_inputs_are_split_into_bounded_batches(monkeypatch):
    rings = [
        Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])
        for n in range(120, 240, 2)
    ]
    rings.append(star(20000))  # larger than one batch on its own
    sizes = []
    inner = embedding._embed_batch

    def spy(nodes, edge_counts, *rest):
        sizes.append((len(nodes), int(nodes.sum() + 2 * edge_counts.sum())))
        inner(nodes, edge_counts, *rest)

    monkeypatch.setattr(embedding, "_embed_batch", spy)
    assert _equals_reference(rings, MetricConfig())
    assert len(sizes) > 2
    assert all(total <= embedding._BATCH_ENTRIES or count == 1 for count, total in sizes)
    assert sum(count for count, _ in sizes) == len(rings)



@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    sizes=st.lists(st.sampled_from([0, 1, 2, 5, 9]), min_size=1, max_size=4),
    p=st.floats(0.0, 0.8),
    keep=st.floats(0.0, 1.0),
    steps=st.integers(1, 4),
    batch=st.sampled_from([7, 40, embedding._BATCH_ENTRIES]),
)
def test_counts_cut_from_masks_equal_counts_of_the_subgraphs(seed, sizes, p, keep, steps, batch):
    """Labelled, unlabelled and 0-node sources, isolated nodes, all-false rows
    and labels beyond int64, in batches that split episodes."""
    rng = np.random.default_rng(seed)
    sources = [random_graph(rng, n, p, labels=bool(k % 2)) for k, n in enumerate(sizes)]
    sources.append(Graph(3, [(0, 2)], [2 ** 70, -1, 2 ** 70]))
    masks = [rng.random((steps, g.node_count)) < keep for g in sources]
    masks[0][-1] = False
    snapshots = [subgraph(g, row) for g, m in zip(sources, masks) for row in m]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "_BATCH_ENTRIES", batch)
        counts, sq = _wl_counts(sources, MetricConfig(), masks)
    expected, expected_sq = _wl_counts(snapshots, MetricConfig())
    assert counts.dtype == expected.dtype
    assert np.array_equal(counts, expected)
    assert np.array_equal(sq, expected_sq)
