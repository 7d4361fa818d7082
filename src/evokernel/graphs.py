"""Undirected simple graphs and their spectral matrices."""

from __future__ import annotations

from itertools import chain, compress
from operator import index

import numpy as np

from .errors import GraphConstructionError


class Graph:
    """Immutable undirected simple graph with optional discrete node labels.

    Edges are stored as a sorted tuple of (i, j) pairs with i < j so iteration
    order never depends on hashing; instances must not be mutated after
    construction. The constructor accepts each undirected edge once, in
    either orientation, and raises :class:`GraphConstructionError` for a node
    count or label that is not an integer (a bool or a float is not), a
    negative node count, an entry that is not a pair of integers, an endpoint
    outside ``[0, node_count)``, a self-loop or a repeated edge.
    """

    def __init__(self, node_count: int, edges, node_labels=None):
        # Counts, endpoints and labels follow ``errors.integer``'s rule inline, for
        # speed: ``operator.index`` refuses floats, a class test refuses bools.
        try:
            if node_count.__class__ is bool:
                raise TypeError
            n = self.node_count = index(node_count)
        except TypeError:
            raise GraphConstructionError(f"node count {node_count!r} is not an integer") from None
        if n < 0:
            raise GraphConstructionError(f"negative node count {n}")
        pairs = []
        edge = edges  # named in the message if ``edges`` is not iterable
        try:
            for edge in edges:
                i, j = edge
                if i.__class__ is bool or j.__class__ is bool:
                    raise TypeError
                i, j = index(i), index(j)
                if not (0 <= i < n and 0 <= j < n):
                    raise GraphConstructionError(f"edge ({i}, {j}) has an endpoint outside [0, {n})")
                if i == j:
                    raise GraphConstructionError(f"self-loop ({i}, {j})")
                pairs.append((i, j) if i < j else (j, i))
        except (TypeError, ValueError):
            raise GraphConstructionError(f"edge {edge!r} is not a pair of integers") from None
        self.edges = tuple(sorted(pairs))
        for kept, repeat in zip(self.edges, self.edges[1:]):
            if kept == repeat:
                raise GraphConstructionError(f"duplicate edge {repeat}")
        self.node_labels = node_labels
        if node_labels is not None:
            try:
                labels = tuple(node_labels)
                if bool in map(type, labels):
                    raise TypeError
                self.node_labels = tuple(map(index, labels))
            except TypeError:
                raise GraphConstructionError(f"node labels {node_labels!r} are not all integers") from None
            if len(self.node_labels) != n:
                raise GraphConstructionError(f"{len(self.node_labels)} node labels for {n} nodes")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(_edge_array(self).ravel(), minlength=self.node_count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edges == other.edges
            and self.node_labels == other.node_labels
        )

    def __hash__(self) -> int:
        return hash((self.node_count, self.edges, self.node_labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Isolated nodes get all-zero rows and columns (the D^{-1/2}(i,i) = 0
    convention), so every eigenvalue lies in [0, 2]. Each entry is the one
    ``-1.0 / sqrt(deg_i * deg_j)`` float64 operation of the textbook per-edge
    loop.
    """
    return _normalized_laplacian(g.node_count, _edge_array(g))


def _normalized_laplacian(n: int, edges: np.ndarray) -> np.ndarray:
    """``normalized_laplacian`` of the graph on ``n`` nodes with the ``(m, 2)`` edge array ``edges``."""
    deg = np.bincount(edges.ravel(), minlength=n).astype(float)
    lap = np.diag((deg > 0).astype(float))
    i, j = edges[:, 0], edges[:, 1]
    w = -1.0 / np.sqrt(deg[i] * deg[j])
    lap[i, j] = w
    lap[j, i] = w
    return lap


def subgraph(g: Graph, kept: np.ndarray) -> Graph:
    """Induced subgraph on the nodes flagged by the boolean mask ``kept``.

    Surviving nodes are re-packed to contiguous 0-based ids in ascending
    source order; labels follow their nodes.
    """
    kept = np.asarray(kept, dtype=bool)
    if kept.shape != (g.node_count,):
        raise GraphConstructionError(
            f"mask of length {kept.size} for graph with {g.node_count} nodes"
        )
    return _subgraphs(g, kept[None])[0]


def _subgraphs(g: Graph, masks: np.ndarray) -> list[Graph]:
    """``subgraph(g, mask)`` for each row of a checked ``(T, n)`` bool mask array."""
    edge_counts, ends = _cut(_edge_array(g), masks)
    ends, stops, labels = ends.tolist(), np.cumsum(edge_counts).tolist(), g.node_labels
    return [
        Graph(sum(mask), ends[stop - m : stop], None if labels is None else tuple(compress(labels, mask)))
        for mask, m, stop in zip(masks.tolist(), edge_counts.tolist(), stops)
    ]


def _cut(edges: np.ndarray, masks: np.ndarray):
    """Edge counts and ends of the subgraphs a graph's ``(m, 2)`` edge array induces on each
    row of ``(T, n)`` bool ``masks``: row 0's surviving edges, then row 1's and so on, in the
    order of ``edges`` and renumbered to the kept nodes' ranks in their row."""
    alive = masks[:, edges[:, 0]] & masks[:, edges[:, 1]]
    return alive.sum(axis=1), (np.cumsum(masks, axis=1) - 1)[:, edges][alive]


def _edge_array(g: Graph) -> np.ndarray:
    """The ``(m, 2)`` int64 array of ``g.edges``: rows ``(i, j)``, i < j, sorted."""
    return np.fromiter(
        chain.from_iterable(g.edges), dtype=np.int64, count=2 * g.edge_count
    ).reshape(-1, 2)

