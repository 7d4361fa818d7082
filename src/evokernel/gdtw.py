"""Time-warped alignment of temporal episodes.

The warping matrix holds pairwise snapshot distances; the alignment distance
is the minimum cumulative cost over all warping paths satisfying the boundary,
monotonicity and continuity constraints, computed by dynamic programming with
an infinity border and recovered by backtracking. The one DP fills a stack of
tables by anti-diagonals and holds three of them; ``gdtw_distance`` writes
each into its full table, the pipeline keeps gamma[s, s] alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import TemporalEpisode
from .embedding import MetricConfig, _count_distances, _graph_counts
from .errors import ContractError, instance, square


@dataclass(frozen=True)
class WarpingResult:
    """Alignment distance, the recovered optimal path (0-based cells, first
    cell (0, 0), last (N-1, N-1)), and the cumulative-cost table including its
    infinity border."""

    distance: float
    path: tuple[tuple[int, int], ...]
    cumulative: np.ndarray


def build_warping_matrix(
    e1: TemporalEpisode, e2: TemporalEpisode, cfg: MetricConfig = MetricConfig()
) -> np.ndarray:
    """M[i, j] = ``delta`` between snapshot i of e1 and snapshot j of e2."""
    instance("e1", e1, TemporalEpisode)
    instance("e2", e2, TemporalEpisode)
    if len(e1) != len(e2):
        raise ContractError(f"episode lengths differ: {len(e1)} vs {len(e2)}")
    counts, sq = _graph_counts(e1.snapshots + e2.snapshots, cfg)
    t = len(e1)
    return _count_distances(counts[:t], counts[t:], sq[:t], sq[t:])


def cross_distances(emb1: np.ndarray, emb2: np.ndarray) -> np.ndarray:
    """Euclidean distances between two stacks of embedding rows, by the expansion
    |a|^2 + |b|^2 - 2 a.b; ``delta`` and the pipeline use ``embedding._count_distances``."""
    sq1 = (emb1 ** 2).sum(axis=1)
    sq2 = (emb2 ** 2).sum(axis=1)
    # In place, so that at most two full-size arrays are alive at once; each
    # step is the same floating-point operation as sq1 + sq2 - 2 * (emb1 @ emb2.T).
    g = emb1 @ emb2.T
    g *= 2.0
    d2 = sq1[:, None] + sq2[None, :]
    d2 -= g
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2, out=d2)


def gdtw_distance(m: np.ndarray) -> WarpingResult:
    """Minimal cumulative cost over admissible warping paths of the matrix.

    gamma(i, j) = M(i, j) + min(gamma(i, j-1), gamma(i-1, j), gamma(i-1, j-1))
    with gamma(0, 0) = 0 and an infinite border. Backtracking breaks ties
    diagonal first, then up, then left, so the path is deterministic and the
    shortest among equal-cost alternatives.
    """
    m = square("warping matrix", m, nonnegative=True)
    if m.size == 0:
        raise ContractError("warping matrix must be non-empty")

    n = m.shape[0]
    gamma = np.empty((n + 1, n + 1))
    for k, diagonal in enumerate(_cumulative_costs(m[None])):  # cell (i, k - i) is flat entry i*n + k
        lo, hi = max(0, k - n), min(k, n)
        gamma.flat[lo * n + k : hi * n + k + 1 : n] = diagonal[lo : hi + 1, 0]

    cells = [(n - 1, n - 1)]
    i = j = n
    while (i, j) != (1, 1):
        diag, up, left = gamma[i - 1, j - 1], gamma[i - 1, j], gamma[i, j - 1]
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up <= left:
            i = i - 1
        else:
            j = j - 1
        cells.append((i - 1, j - 1))
    cells.reverse()

    return WarpingResult(
        distance=float(gamma[n, n]), path=tuple(cells), cumulative=gamma
    )


def _cumulative_costs(costs: np.ndarray):
    """Anti-diagonals of the cumulative-cost tables of a (P, T, T) stack of warping matrices.

    Yields diagonal k = 0 .. 2T of the (T+1, T+1) tables (gamma[0, 0] = 0, an
    infinite border) as an array whose row i holds cell (i, k - i) of every
    pair, for max(0, k - T) <= i <= min(k, T). A cell reads only the two
    diagonals before its own, so a diagonal is two np.minimum calls and one
    add over all its cells and pairs, and a yielded array is overwritten
    three diagonals later. Its costs are a slice of each pair's flat T*T row
    with step T - 1. No entry is NaN, so np.minimum is exact in any order.
    """
    t = costs.shape[1]
    flat = costs.reshape(len(costs), t * t)
    diagonals = np.full((3, t + 1, len(costs)), np.inf)
    before = np.zeros((1, len(costs)))  # diagonal 0: gamma[0, 0]
    yield from (before, diagonals[1])
    for k in range(2, 2 * t + 1):
        last, cells = diagonals[(k - 1) % 3], diagonals[k % 3]
        lo, hi = max(1, k - t), min(t, k - 1)
        inner = cells[lo : hi + 1]
        np.minimum(before[lo - 1 : hi], last[lo - 1 : hi], out=inner)
        np.minimum(inner, last[lo : hi + 1], out=inner)
        inner += flat[:, (lo - 1) * (t - 1) + k - 2 :: max(t - 1, 1)][:, : hi - lo + 1].T
        yield cells
        before = last
