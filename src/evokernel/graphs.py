"""Undirected simple graphs and their spectral matrices."""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

from .errors import GraphConstructionError


class Graph:
    """Immutable undirected simple graph with optional discrete node labels.

    Edges are stored as a sorted tuple of (i, j) pairs with i < j so iteration
    order never depends on hashing; instances must not be mutated after
    construction. The constructor accepts each undirected edge once, in
    either orientation, and raises :class:`GraphConstructionError` for a
    negative node count, an entry that is not a pair of integers, an endpoint
    outside ``[0, node_count)``, a self-loop or a repeated edge.
    """

    def __init__(self, node_count: int, edges, node_labels=None):
        n = self.node_count = int(node_count)
        if n < 0:
            raise GraphConstructionError(f"negative node count {n}")
        pairs = []
        for edge in edges:
            try:
                i, j = edge
                i, j = int(i), int(j)
            except (TypeError, ValueError):
                raise GraphConstructionError(f"edge {edge!r} is not a pair of integers") from None
            if not (0 <= i < n and 0 <= j < n):
                raise GraphConstructionError(f"edge ({i}, {j}) has an endpoint outside [0, {n})")
            if i == j:
                raise GraphConstructionError(f"self-loop ({i}, {j})")
            pairs.append((i, j) if i < j else (j, i))
        self.edges = tuple(sorted(pairs))
        for kept, repeat in zip(self.edges, self.edges[1:]):
            if kept == repeat:
                raise GraphConstructionError(f"duplicate edge {repeat}")
        if node_labels is None:
            self.node_labels = None
        else:
            self.node_labels = tuple(int(x) for x in node_labels)
            if len(self.node_labels) != self.node_count:
                raise GraphConstructionError(
                    f"{len(self.node_labels)} node labels for {self.node_count} nodes"
                )

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
    edges = _edge_array(g)
    deg = np.bincount(edges.ravel(), minlength=g.node_count).astype(float)
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
    edges = _edge_array(g)
    # Edges with both ends kept, renumbered to the kept nodes' ranks.
    edges = (np.cumsum(kept) - 1)[edges[kept[edges[:, 0]] & kept[edges[:, 1]]]]
    labels = None
    if g.node_labels is not None:
        labels = tuple(compress(g.node_labels, kept.tolist()))
    return Graph(int(np.count_nonzero(kept)), edges.tolist(), labels)


def _edge_array(g: Graph) -> np.ndarray:
    """The ``(m, 2)`` int64 array of ``g.edges``: rows ``(i, j)``, i < j, sorted."""
    return np.fromiter(
        chain.from_iterable(g.edges), dtype=np.int64, count=2 * g.edge_count
    ).reshape(-1, 2)

