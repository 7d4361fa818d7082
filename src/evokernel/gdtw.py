"""Time-warped alignment of temporal episodes.

The warping matrix holds pairwise snapshot distances; the alignment distance
is the minimum cumulative cost over all warping paths satisfying the boundary,
monotonicity and continuity constraints, computed by dynamic programming with
an infinity border and recovered by backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import TemporalEpisode
from .embedding import MetricConfig, _count_distances, _wl_counts
from .errors import ContractError, square


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
    if len(e1) != len(e2):
        raise ContractError(f"episode lengths differ: {len(e1)} vs {len(e2)}")
    counts, sq = _wl_counts(e1.snapshots + e2.snapshots, cfg)
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
    gamma = _cumulative_costs(m[:, :, None])[:, :, 0]

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


def _cumulative_costs(costs: np.ndarray) -> np.ndarray:
    """Cumulative-cost tables of a (T, T, P) stack of warping matrices.

    Returns the (T+1, T+1, P) tables with gamma[0, 0] = 0 and an infinite
    border. The pair axis is last, so each cell of the table is one
    contiguous vector and each cell update one vector op over all P pairs.
    Cells are filled row by row; every entry is finite or inf, never NaN, so
    np.minimum selects exactly the value that scalar comparisons would.
    """
    t = costs.shape[0]
    gamma = np.full((t + 1, t + 1) + costs.shape[2:], np.inf)
    gamma[0, 0] = 0.0
    for i in range(1, t + 1):
        prev, row = gamma[i - 1], gamma[i]
        diag_or_up = np.minimum(prev[:-1], prev[1:])
        for j in range(1, t + 1):
            np.minimum(diag_or_up[j - 1], row[j - 1], out=row[j])
            row[j] += costs[i - 1, j - 1]
    return gamma
