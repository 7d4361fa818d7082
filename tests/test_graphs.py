from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evokernel.embedding import MetricConfig, wl_embed_batch
from evokernel.errors import GraphConstructionError
from evokernel.graphs import Graph, normalized_laplacian, subgraph

from .oracles import (
    neighbour_lists,
    permute_graph,
    random_graph,
    reference_normalized_laplacian,
    reference_simple_edges,
    reference_subgraph,
    reference_wl_embed,
)


def test_single_edge_graph(k2):
    assert k2.node_count == 2
    assert list(k2.degrees()) == [1, 1]


def test_edgeless_graph():
    g = Graph(3, [])
    assert g.edge_count == 0


def test_four_cycle_degrees(c4):
    assert list(c4.degrees()) == [2, 2, 2, 2]


def test_out_of_range_edge_names_offender():
    with pytest.raises(GraphConstructionError, match=r"\(0, 5\)"):
        Graph(3, [(0, 5)])


def test_strict_rejects_self_loop_and_duplicate():
    with pytest.raises(GraphConstructionError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphConstructionError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])


def test_label_length_must_match():
    with pytest.raises(GraphConstructionError):
        Graph(3, [], node_labels=[1, 2])


def test_laplacian_single_edge(k2):
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(normalized_laplacian(k2), expected)


def test_laplacian_edgeless_is_zero():
    lap = normalized_laplacian(Graph(3, []))
    assert np.array_equal(lap, np.zeros((3, 3)))


def test_laplacian_path_graph(p3):
    lap = normalized_laplacian(p3)
    assert np.allclose(np.diag(lap), [1.0, 1.0, 1.0])
    assert lap[0, 1] == pytest.approx(-1.0 / np.sqrt(2.0))
    assert lap[1, 2] == pytest.approx(-1.0 / np.sqrt(2.0))
    assert lap[0, 2] == 0.0


def test_isolated_node_gives_zero_row(k2):
    g = Graph(3, [(0, 1)])
    lap = normalized_laplacian(g)
    assert np.array_equal(lap[2], np.zeros(3))
    assert np.array_equal(lap[:, 2], np.zeros(3))


@pytest.mark.parametrize("seed", range(8))
def test_adjacency_and_volume_invariants(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(1, 25)), 0.3)
    lists = neighbour_lists(g)
    assert all(i in lists[j] for i, ns in enumerate(lists) for j in ns)
    assert all(i not in ns and len(set(ns)) == len(ns) for i, ns in enumerate(lists))
    assert int(g.degrees().sum()) == 2 * g.edge_count
    assert g.degrees().tolist() == [len(ns) for ns in lists]


@pytest.mark.parametrize("seed", range(8))
def test_laplacian_spectrum_in_range(seed):
    rng = np.random.default_rng(100 + seed)
    g = random_graph(rng, int(rng.integers(2, 30)), 0.25)
    lap = normalized_laplacian(g)
    assert np.max(np.abs(lap - lap.T)) <= 1e-12
    eigs = np.linalg.eigvalsh(lap)
    assert eigs[0] >= -1e-9
    assert eigs[-1] <= 2.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_laplacian_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    g = random_graph(rng, n, 0.3)
    perm = rng.permutation(n)
    relabeled = permute_graph(g, perm)
    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0  # p @ x permutes old coordinates to new
    expected = p @ normalized_laplacian(g) @ p.T
    assert np.allclose(normalized_laplacian(relabeled), expected, atol=1e-12)


def test_subgraph_repacks_and_keeps_labels():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], node_labels=[5, 6, 7, 8])
    sub = subgraph(g, np.array([True, False, True, True]))
    assert sub.node_count == 3
    assert sub.edges == ((1, 2),)
    assert sub.node_labels == (5, 7, 8)


def test_graph_value_equality(k2):
    assert k2 == Graph(2, [(0, 1)])
    assert k2 != Graph(2, [])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(0, 30), p=st.floats(0.0, 1.0))
def test_array_forms_equal_scalar_references(seed, n, p):
    """Laplacian and induced subgraph are bit-equal to the per-edge loops,
    isolated nodes, empty graphs and empty or full masks included."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p, labels=bool(seed % 2))
    assert np.array_equal(normalized_laplacian(g), reference_normalized_laplacian(g))
    for kept in (rng.random(n) < rng.random(), np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
        sub = subgraph(g, kept)
        assert sub == reference_subgraph(g, kept)
        assert np.array_equal(normalized_laplacian(sub), reference_normalized_laplacian(sub))


def test_subgraph_rejects_mask_of_wrong_shape(p3):
    with pytest.raises(GraphConstructionError, match="mask of length 2"):
        subgraph(p3, np.array([True, False]))
    with pytest.raises(GraphConstructionError):
        subgraph(p3, np.ones((3, 1), dtype=bool))


def test_unchecked_graph_with_outside_endpoint_is_rejected():
    with pytest.raises(GraphConstructionError, match=r"outside \[0, 3\)"):
        Graph(3, [(0, 5)])


@pytest.mark.parametrize(
    "node_count, edges, message",
    [
        (-1, [], r"negative node count -1"),
        (3, [(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair"),
        (3, [3], r"edge 3 is not a pair"),
        (3, [(0, None)], r"edge \(0, None\) is not a pair"),
        (3, [(-1, 0)], r"edge \(-1, 0\) has an endpoint outside \[0, 3\)"),
        (3, [(2, 3)], r"edge \(2, 3\) has an endpoint outside \[0, 3\)"),
        (3, [(1, 1)], r"self-loop \(1, 1\)"),
        (3, [(0, 1), (1, 0)], r"duplicate edge \(0, 1\)"),
        (3, [(1, 2), (0, 1), (1, 2)], r"duplicate edge \(1, 2\)"),
        (2.9, [], r"node count 2\.9 is not an integer"),
        (True, [], r"node count True is not an integer"),
        (3, [(0.5, 1.7)], r"edge \(0\.5, 1\.7\) is not a pair of integers"),
        (3, [(True, 2)], r"edge \(True, 2\) is not a pair of integers"),
    ],
)
def test_constructor_names_what_makes_an_edge_list_invalid(node_count, edges, message):
    with pytest.raises(GraphConstructionError, match=message):
        Graph(node_count, edges)


@pytest.mark.parametrize("labels", [[0.7, 1.2, 2.9], [True, 0, 1], np.array([1.0, 2.0, 3.0]), 5])
def test_constructor_refuses_labels_that_are_not_integers(labels):
    with pytest.raises(GraphConstructionError, match="node labels .* are not all integers"):
        Graph(3, [(0, 1)], node_labels=labels)


def test_constructor_takes_numpy_integers_as_python_ints():
    g = Graph(np.int64(3), np.array([[1, 0], [1, 2]]), node_labels=np.array([4, 5, 6], dtype=np.uint8))
    assert g == Graph(3, [(0, 1), (1, 2)], node_labels=[4, 5, 6])
    assert {type(x) for x in (g.node_count, *g.edges[0], *g.node_labels)} == {int}


@st.composite
def _node_counts_and_edge_lists(draw):
    """A simple graph's edges in random orientations, with up to three faults
    inserted: a repeat in either orientation, a self-loop, a negative or a
    too-large endpoint. The node count is sometimes negative."""
    n = draw(st.integers(-1, 7))
    node = st.integers(0, max(n - 1, 0))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [draw(st.permutations(pair)) for pair in chosen]
    faults = ["loop", "negative", "past"] + (["repeat"] if edges else [])
    for fault in draw(st.lists(st.sampled_from(faults), max_size=3)):
        if fault == "repeat":
            edge = draw(st.sampled_from(edges))
        elif fault == "loop":
            edge = (draw(node),) * 2
        elif fault == "negative":
            edge = (draw(st.integers(-3, -1)), draw(node))
        else:
            edge = (draw(node), draw(st.integers(max(n, 0), n + 2)))
        edges.insert(draw(st.integers(0, len(edges))), draw(st.permutations(edge)))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(case=_node_counts_and_edge_lists(), mask_bits=st.integers(0, 2**7 - 1))
def test_constructor_accepts_exactly_the_simple_graphs(case, mask_bits):
    """``Graph`` raises for every list the set-based oracle rejects and otherwise
    stores the oracle's edges; every graph it accepts works downstream."""
    n, edges = case
    expected = reference_simple_edges(n, edges)
    if expected is None:
        with pytest.raises(GraphConstructionError):
            Graph(n, edges)
        return
    g = Graph(n, edges)
    assert g.edges == expected
    assert g.degrees().tolist() == [sum(v in e for e in expected) for v in range(n)]
    assert np.array_equal(normalized_laplacian(g), reference_normalized_laplacian(g))
    kept = np.array([bool(mask_bits >> v & 1) for v in range(n)], dtype=bool)
    assert subgraph(g, kept) == reference_subgraph(g, kept)
    cfg = MetricConfig(wl_iterations=2, dim=64)
    assert np.array_equal(wl_embed_batch([g], cfg)[0], reference_wl_embed(g, 2, 64))
