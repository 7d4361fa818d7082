"""Time-warped alignment of temporal episodes.

The warping matrix holds pairwise snapshot distances; the alignment distance
is the minimum cumulative cost over all warping paths satisfying the boundary,
monotonicity and continuity constraints, computed by dynamic programming with
an infinity border and recovered by backtracking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .augment import TemporalEpisode
from .embedding import MetricConfig, _wl_counts
from .errors import ContractError


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
    """M[i, j] = metric distance between snapshot i of e1 and snapshot j of e2."""
    if len(e1) != len(e2):
        raise ContractError(f"episode lengths differ: {len(e1)} vs {len(e2)}")
    counts, sq = _snapshot_counts(e1.snapshots + e2.snapshots, cfg)
    t = len(e1)
    return _count_distances(counts[:t], counts[t:], sq[:t], sq[t:])


def _snapshot_counts(snapshots, cfg: MetricConfig):
    """WL count rows of the snapshots, in a dtype whose Grams are exact, and their squared norms.

    A row sums to nodes * (wl_iterations + 1), so every entry of a Gram of
    such rows, and every partial sum of one, is an integer of at most
    (max nodes * (wl_iterations + 1))^2: float32 is exact below 2^24 and
    float64 below 2^53. The type is settled from the node counts alone,
    before anything is embedded.
    """
    cfg.validate()
    nodes = max((g.node_count for g in snapshots), default=0)
    bound = (nodes * (cfg.wl_iterations + 1)) ** 2
    if bound < 2 ** 24:
        dtype = np.float32
    elif bound < 2 ** 53:
        dtype = np.float64
    else:
        raise ContractError(
            f"WL counts of a {nodes}-node snapshot at {cfg.wl_iterations} iterations "
            f"reach Gram entries of up to {bound}, beyond exact float64 (2^53)"
        )
    counts = _wl_counts(snapshots, cfg, dtype)
    return counts, np.einsum("ij,ij->i", counts, counts).astype(np.float64)


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


def cross_distances(emb1: np.ndarray, emb2: np.ndarray) -> np.ndarray:
    """Euclidean distances between two stacks of embedding rows, by the expansion
    |a|^2 + |b|^2 - 2 a.b; the pipeline's snapshot distances use ``_count_distances``."""
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
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ContractError(f"warping matrix must be square and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ContractError("warping matrix entries must be finite and non-negative")

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


def warping_to_json(m: np.ndarray, result: WarpingResult) -> str:
    """Diagnostic dump of one aligned pair: cost matrix, path, distance."""
    return json.dumps(
        {
            "matrix": np.asarray(m, dtype=float).tolist(),
            "path": [list(cell) for cell in result.path],
            "distance": result.distance,
        }
    )
