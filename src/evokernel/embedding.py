"""Deterministic graph embeddings and the snapshot metric used for alignment.

Graphs are embedded as L2-normalized histograms of Weisfeiler-Lehman subtree
features hashed into a fixed number of buckets with BLAKE2b, which is stable
across processes and platforms (unlike Python's salted str hash). The metric
between two graphs is the Euclidean distance of their embeddings, computed
from the exact integer Gram of their count rows (``_count_distances``); the
public ``delta`` and every snapshot distance of the pipeline use it.

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
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, ContractError, integer
from .graphs import Graph

# Refined labels are compressed to a 16-byte digest each round so signatures
# stay short; 2^-128 collision odds are negligible against float tolerances.
_LABEL_DIGEST_SIZE = 16
_BUCKET_DIGEST_SIZE = 8

# Graphs are embedded in batches of at most this many nodes plus directed
# edge entries (a larger graph is a batch of its own), which bounds the
# working memory whatever the number of graphs.
_BATCH_ENTRIES = 16384

# Deepest supported WL refinement. Time grows linearly with the depth and one
# label-id array is kept per round: counting the 2,068 snapshots of a MUTAG
# run takes 0.075 s at depth 3 and 8.5 s at depth 100, and a depth of 4e7,
# which the exact-count rule still admits for small graphs, would run for
# half an hour holding that many arrays.
MAX_WL_ITERATIONS = 100


@dataclass(frozen=True)
class MetricConfig:
    wl_iterations: int = 3
    dim: int = 1024

    def validate(self) -> MetricConfig:
        """This config with Python-int sizes; ``ConfigError`` unless both are integers in range."""
        dim = integer("embedding dimension", self.dim, 1)
        depth = integer("refinement depth", self.wl_iterations)
        if depth > MAX_WL_ITERATIONS:
            raise ConfigError(f"refinement depth {depth} is above the supported {MAX_WL_ITERATIONS}")
        return MetricConfig(depth, dim)


@dataclass(frozen=True)
class WlEmbedding:
    """Unit-norm feature vector; the empty graph embeds to the zero vector."""

    vector: np.ndarray


def wl_embed(g: Graph, cfg: MetricConfig = MetricConfig()) -> WlEmbedding:
    """The graph's WL count row over its L2 norm."""
    counts, sq = _wl_counts([g], cfg)
    return WlEmbedding(vector=counts[0] / np.sqrt(np.maximum(sq[0], 1.0)))


def delta(g1: Graph, g2: Graph, cfg: MetricConfig = MetricConfig()) -> float:
    """Euclidean distance between the two embeddings by the pipeline's formula; 0 if isomorphic."""
    counts, sq = _wl_counts([g1, g2], cfg)
    return float(_count_distances(counts[:1], counts[1:], sq[:1], sq[1:])[0, 0])


def _wl_counts(graphs, cfg: MetricConfig):
    """(len(graphs), dim) matrix of the graphs' WL bucket counts and the rows' squared norms.

    A row depends only on its graph. It sums to nodes * (wl_iterations + 1),
    so every entry of a Gram of such rows, and every partial sum of one, is
    an integer of at most (max nodes * (wl_iterations + 1))^2: the counts are
    float32 below 2^24 and float64 below 2^53, where their Grams and squared
    norms are exact. The type is settled from the node counts alone, before
    anything is allocated or embedded.
    """
    cfg = cfg.validate()
    graphs = list(graphs)
    nodes = max((g.node_count for g in graphs), default=0)
    bound = (nodes * (cfg.wl_iterations + 1)) ** 2
    if bound < 2 ** 24:
        dtype = np.float32
    elif bound < 2 ** 53:
        dtype = np.float64
    else:
        raise ContractError(
            f"WL counts of a {nodes}-node graph at {cfg.wl_iterations} iterations "
            f"reach Gram entries of up to {bound}, beyond exact float64 (2^53)"
        )
    try:
        out = np.zeros((len(graphs), cfg.dim), dtype=dtype)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an array can hold
        raise ContractError(
            f"cannot allocate WL counts of {len(graphs)} rows x {cfg.dim} buckets: {exc}"
        ) from None
    sizes = [g.node_count + 2 * g.edge_count for g in graphs]
    lo = 0
    while lo < len(graphs):
        hi, total = lo + 1, sizes[lo]
        while hi < len(graphs) and total + sizes[hi] <= _BATCH_ENTRIES:
            total += sizes[hi]
            hi += 1
        _embed_batch(graphs[lo:hi], cfg, out[lo:hi])
        lo = hi
    return out, np.einsum("ij,ij->i", out, out).astype(np.float64)


def _count_distances(
    a: np.ndarray, b: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray
) -> np.ndarray:
    """Euclidean distances between the L2-normalized rows of two WL count stacks.

    With ``sq`` the rows' squared norms and u = 1 for a non-empty row (0 for
    the all-zero row of an empty snapshot, which embeds to the zero vector),
    d^2 = u_a + u_b - 2 * G / sqrt(sq_a * sq_b) for the integer Gram G. G is
    exact in any blocking and summation order, so a distance depends on its
    two rows alone and is exactly symmetric; equal rows are exactly 0 apart.
    """
    g = (a @ b.T).astype(np.float64, copy=False)
    g *= 2.0
    g /= np.sqrt(np.maximum(sq_a, 1.0)[:, None] * np.maximum(sq_b, 1.0))
    d2 = (sq_a > 0)[:, None] + (sq_b > 0).astype(np.float64)
    d2 -= g
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2, out=d2)


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
