"""Deterministic graph embeddings and the snapshot metric used for alignment.

Graphs are embedded as L2-normalized histograms of Weisfeiler-Lehman subtree
features hashed into a fixed number of buckets with BLAKE2b, which is stable
across processes and platforms (unlike Python's salted str hash). The metric
between two graphs is the Euclidean distance of their embeddings.

Labels are strings. Round 0 is a node's decimal label, or its degree when the
graph has no labels; each later round's label is the hex BLAKE2b digest of the
signature ``own + "|" + ",".join(sorted(neighbour labels))``, and every
(round, label) occurrence adds one to bucket
``blake2b(f"{round}:{label}") mod dim``. A batch of graphs computes exactly
this over the disjoint union of its graphs, with the labels of each round
replaced by integer ids ranked in string order, so that sorting ids sorts
labels: equal signatures are found with array operations, and each distinct
signature and each distinct (round, label) pair is hashed once per batch.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError
from .graphs import Graph

# Refined labels are compressed to a 16-byte digest each round so signatures
# stay short; 2^-128 collision odds are negligible against float tolerances.
_LABEL_DIGEST_SIZE = 16
_BUCKET_DIGEST_SIZE = 8

# Graphs are embedded in batches of at most this many nodes plus directed
# edge entries (a larger graph is a batch of its own), which bounds the
# working memory whatever the number of graphs.
_BATCH_ENTRIES = 16384


@dataclass(frozen=True)
class MetricConfig:
    wl_iterations: int = 3
    dim: int = 1024

    def validate(self) -> None:
        for name, value in (("embedding dimension", self.dim), ("refinement depth", self.wl_iterations)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise ConfigError(f"embedding dimension must be >= 1, got {self.dim}")
        if self.wl_iterations < 0:
            raise ConfigError(f"refinement depth must be >= 0, got {self.wl_iterations}")


@dataclass(frozen=True)
class WlEmbedding:
    """Unit-norm feature vector; the empty graph embeds to the zero vector."""

    vector: np.ndarray


def wl_embed(g: Graph, cfg: MetricConfig = MetricConfig()) -> WlEmbedding:
    """Hash every (round, label) occurrence into a count vector, then L2-normalize."""
    return WlEmbedding(vector=wl_embed_batch([g], cfg)[0])


def wl_embed_batch(graphs, cfg: MetricConfig = MetricConfig()) -> np.ndarray:
    """(len(graphs), dim) matrix whose row i is ``wl_embed(graphs[i], cfg).vector``.

    A row depends only on its graph, not on the rest of the batch.
    """
    cfg.validate()
    out = _wl_counts(graphs, cfg, np.float64)
    # Counts are integers, so their sums of squares are exact in any order and
    # each entry equals the sequentially accumulated count over its norm.
    norm = np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]
    return np.divide(out, norm, out=out, where=norm > 0)


def _wl_counts(graphs, cfg: MetricConfig, dtype) -> np.ndarray:
    """(len(graphs), dim) matrix of the graphs' WL bucket counts, as ``dtype``.

    The counts are exact in ``dtype`` while no graph has 2^24 (float32) or
    2^53 (float64) nodes times rounds; the caller picks the type.
    """
    graphs = list(graphs)
    out = np.zeros((len(graphs), cfg.dim), dtype=dtype)
    sizes = [g.node_count + 2 * g.edge_count for g in graphs]
    lo = 0
    while lo < len(graphs):
        hi, total = lo + 1, sizes[lo]
        while hi < len(graphs) and total + sizes[hi] <= _BATCH_ENTRIES:
            total += sizes[hi]
            hi += 1
        _embed_batch(graphs[lo:hi], cfg, out[lo:hi])
        lo = hi
    return out


def _embed_batch(graphs: list[Graph], cfg: MetricConfig, out: np.ndarray) -> None:
    """Write the WL bucket counts of ``graphs`` into the zeroed rows of ``out``."""
    nodes = np.array([g.node_count for g in graphs], dtype=np.int64)
    n = int(nodes.sum())
    if n == 0:
        return
    graph_of = np.repeat(np.arange(len(graphs)), nodes)

    # Adjacency lists of the disjoint union, as rows of a CSR layout.
    edge_counts = np.array([g.edge_count for g in graphs], dtype=np.int64)
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
        dtype=np.int64,
        count=2 * int(edge_counts.sum()),
    ).reshape(-1, 2)
    ends += np.repeat(np.cumsum(nodes) - nodes, edge_counts)[:, None]
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    neighbours = dst[np.argsort(src, kind="stable")]
    degree = np.bincount(src, minlength=n)
    first = np.cumsum(degree) - degree

    # Nodes grouped by degree, with their neighbours as one (members, degree)
    # index matrix per group: signatures of different lengths never match.
    by_degree = np.argsort(degree, kind="stable")
    groups = []
    for members in np.split(by_degree, np.flatnonzero(np.diff(degree[by_degree])) + 1):
        d = int(degree[members[0]])
        groups.append((members, neighbours[first[members][:, None] + np.arange(d)]))

    row_start = graph_of * cfg.dim
    ids, names = _initial_ids(graphs, nodes, degree)
    cells = [row_start + _buckets(0, names, cfg.dim)[ids]]
    for round_index in range(1, cfg.wl_iterations + 1):
        ids, names = _refine(ids, names, groups, n)
        cells.append(row_start + _buckets(round_index, names, cfg.dim)[ids])

    cell, count = np.unique(np.concatenate(cells), return_counts=True)
    out.flat[cell] = count


def _initial_ids(graphs: list[Graph], nodes: np.ndarray, degree: np.ndarray):
    """Round-0 ids of the union's nodes and the labels they stand for, in string order."""
    labelled = np.repeat([g.node_labels is not None for g in graphs], nodes)
    labels = list(chain.from_iterable(g.node_labels for g in graphs if g.node_labels is not None))
    try:
        values = degree.copy()
        values[labelled] = labels
    except OverflowError:  # labels beyond int64 stay Python ints
        values = degree.astype(object)
        values[labelled] = labels
    distinct, inverse = np.unique(values, return_inverse=True)
    strings = [str(v) for v in distinct.tolist()]
    order = sorted(range(len(strings)), key=strings.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse], [strings[i] for i in order]


def _refine(ids: np.ndarray, names: list[str], groups, n: int):
    """One refinement round: hash each distinct signature once, rank the digests."""
    digests: list[str] = []
    signature_of = np.empty(n, dtype=np.int64)
    for members, neighbour_index in groups:
        rows = np.empty((len(members), neighbour_index.shape[1] + 1), dtype=np.int64)
        rows[:, 0] = ids[members]
        rows[:, 1:] = np.sort(ids[neighbour_index], axis=1)
        distinct, inverse = _unique_rows(rows)
        signature_of[members] = inverse + len(digests)
        digests.extend(
            hashlib.blake2b(
                (names[own] + "|" + ",".join([names[j] for j in rest])).encode("utf-8"),
                digest_size=_LABEL_DIGEST_SIZE,
            ).hexdigest()
            for own, *rest in distinct.tolist()
        )
    refined = sorted(set(digests))
    rank = {label: i for i, label in enumerate(refined)}
    digest_ids = np.array([rank[label] for label in digests], dtype=np.int64)
    return digest_ids[signature_of], refined


def _unique_rows(rows: np.ndarray):
    """Distinct rows of an integer matrix and each row's index among them."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _buckets(round_index: int, names: list[str], dim: int) -> np.ndarray:
    """Bucket of each (round, label) feature, by label id."""
    return np.array(
        [
            int.from_bytes(
                hashlib.blake2b(
                    f"{round_index}:{name}".encode("utf-8"), digest_size=_BUCKET_DIGEST_SIZE
                ).digest(),
                "big",
            )
            % dim
            for name in names
        ],
        dtype=np.int64,
    )


def delta(g1: Graph, g2: Graph, cfg: MetricConfig = MetricConfig()) -> float:
    """Euclidean distance between the two embeddings; 0 for isomorphic inputs."""
    v1, v2 = wl_embed_batch([g1, g2], cfg)
    return float(np.linalg.norm(v1 - v2))
