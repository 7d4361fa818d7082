"""Pairwise episode distances and the similarity kernel fed to the SVM.

The kernel is K = exp(-d / sigma) with a median-distance bandwidth. Alignment
distances violate the triangle inequality, so K can be indefinite; eigenvalue
clipping is available (and on by default downstream) to repair it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import TemporalEpisode
from .embedding import MetricConfig, _count_distances, _graph_counts
from .errors import ContractError, choice, instance, real, sequence, square
from .gdtw import _cumulative_costs

# Snapshot distances are computed and aligned for blocks of episode rows of
# about this many snapshots (at least one episode) against all later
# episodes, which bounds their working memory whatever the number of episodes.
_BLOCK_SNAPSHOTS = 128

# Repairs of an indefinite kernel: none, or zeroing its negative eigenvalues.
PSD_REPAIRS = ("none", "clip")


@dataclass(frozen=True)
class EvolutionKernelMatrix:
    k: np.ndarray
    sigma: float
    psd_repair: str


def distance_matrix(
    episodes: list[TemporalEpisode], cfg: MetricConfig = MetricConfig()
) -> np.ndarray:
    """Symmetric matrix of pairwise alignment distances, zero diagonal.

    Entry (i, j) equals ``gdtw_distance(build_warping_matrix(e_i, e_j, cfg))``
    bit for bit. Every snapshot is embedded exactly once; each unordered pair
    is aligned once and mirrored, so symmetry is exact by construction.
    Snapshot distances are built for a block of whole episodes, about
    ``_BLOCK_SNAPSHOTS`` snapshot rows at a time, against the later snapshots
    in column chunks of about twice as many, each written straight into its
    pairs' cost stack, and aligned three table diagonals at a time. Beyond the
    (n * T, dim) count matrix, of one to four bytes a count, and the result,
    the working memory grows as O(n * T) for T <= ``_BLOCK_SNAPSHOTS``, not
    (n * T)^2. A longer grid has one episode per block, whose (n - 1, T, T)
    cost stack is whole, so the memory grows as O(n * T^2): 358 MiB for the
    187 pairs of MUTAG's first graph at 501 steps.
    """
    episodes = sequence("episodes", episodes)
    for e in episodes:
        instance("episode", e, TemporalEpisode)
    if not episodes:
        return np.zeros((0, 0))
    grid = episodes[0].times
    for e in episodes:
        if len(e.snapshots) != len(grid) or not np.array_equal(e.times, grid):
            raise ContractError("episodes are not on a common time grid with one snapshot per time")
    if not len(grid):
        raise ContractError("episodes have no snapshots")
    counts, sq = _graph_counts([snap for e in episodes for snap in e.snapshots], cfg)
    return _prefix_distance_matrices(counts, sq, len(grid), [len(grid)])[len(grid)]


def _prefix_distance_matrices(
    counts: np.ndarray, sq: np.ndarray, steps: int, step_counts
) -> dict[int, np.ndarray]:
    """``distance_matrix`` of the episodes cut to their first s snapshots, for each s.

    ``counts`` and ``sq`` are the WL count rows of every episode's ``steps``
    snapshots, episode after episode, and their squared norms. Snapshot
    distances come from their exact integer Gram, so a distance does not
    depend on which other snapshots share its product: one product over the
    longest grid serves every s. The alignment recurrence only looks back, so
    gamma[s, s] of each pair's one full-length table is the distance of the
    s-snapshot prefixes, bit for bit; only those cells are kept. Pair (i, j)
    has j's snapshots as its table's rows, the transpose of
    ``build_warping_matrix(e_i, e_j)``, whose gamma[s, s] is the same bits:
    each cell adds the same cost to an exact minimum.
    """
    if any(not 1 <= s <= steps for s in step_counts):
        raise ContractError(f"step counts {sorted(step_counts)} are not all within 1..{steps}")
    step_counts = sorted({int(s) for s in step_counts})
    n = len(counts) // steps
    d = {s: np.zeros((n, n)) for s in step_counts}
    per_block, per_chunk = max(1, _BLOCK_SNAPSHOTS // steps), max(1, 2 * _BLOCK_SNAPSHOTS // steps)
    # Count columns are cast a chunk at a time into one buffer, exactly: uint8 and uint16 fit float32.
    buffer = np.empty((min(per_chunk, n) * steps, counts.shape[1]), np.promote_types(counts.dtype, np.float32))
    for lo in range(0, n - 1, per_block):
        hi = min(lo + per_block, n - 1)
        # Rows of episodes lo..hi-1 against the m episodes after lo, in one stack of tables:
        # table (c, r) is pair (lo + r, lo + 1 + c). Pairs with c < r (j <= i), all in the
        # first column chunk, are aligned too, and dropped.
        rows, m = slice(lo * steps, hi * steps), n - lo - 1
        block = counts[rows].astype(buffer.dtype)
        costs = np.empty((m, hi - lo, steps, steps))
        for c0 in range(0, m, per_chunk):
            c1 = min(c0 + per_chunk, m)
            cols = slice((lo + 1 + c0) * steps, (lo + 1 + c1) * steps)
            chunk = buffer[: cols.stop - cols.start]
            np.copyto(chunk, counts[cols])
            part = _count_distances(chunk, block, sq[cols], sq[rows])
            np.copyto(costs[c0:c1], part.reshape(c1 - c0, steps, hi - lo, steps).transpose(0, 2, 1, 3))
        c, r = np.divmod(np.arange(m * (hi - lo)), hi - lo)
        keep = c >= r
        i, j = r[keep] + lo, c[keep] + lo + 1
        for k, diagonal in enumerate(_cumulative_costs(costs.reshape(-1, steps, steps))):
            if k % 2 == 0 and k // 2 in d:
                d[k // 2][i, j] = d[k // 2][j, i] = diagonal[k // 2][keep]
        del diagonal, costs  # the DP's buffers go before the next block's distances
    return d


def evolution_kernel(
    d: np.ndarray, gamma_scale: float = 1.0, repair: str = "clip"
) -> EvolutionKernelMatrix:
    """K(i, j) = exp(-d(i, j) / sigma), sigma = gamma_scale * median off-diagonal distance.

    ``d`` must be square, finite, non-negative and exactly symmetric. An empty or all-zero
    off-diagonal falls back to sigma = 1 (the kernel of a zero matrix is all
    ones either way). With repair="clip" the matrix is eigendecomposed,
    negative eigenvalues zeroed, reconstructed and re-symmetrized; that
    trades the exact unit diagonal for positive semidefiniteness.
    """
    gamma_scale = real("gamma_scale", gamma_scale, 0, above=True)
    choice("repair", repair, PSD_REPAIRS)
    d = square("distance matrix", d, nonnegative=True, symmetric=True)
    off = d[~np.eye(len(d), dtype=bool)]
    median = float(np.median(off)) if off.size else 0.0
    sigma = gamma_scale * median if median > 0 else 1.0
    k = np.exp(-d / sigma)
    if repair == "clip":
        k = clip_psd(k)
    return EvolutionKernelMatrix(k=k, sigma=sigma, psd_repair=repair)


def clip_psd(k: np.ndarray) -> np.ndarray:
    """Project a finite, exactly symmetric matrix onto the PSD cone by zeroing negative eigenvalues."""
    k = square("matrix", k, symmetric=True)
    w, v = np.linalg.eigh(k)
    w = np.clip(w, 0.0, None)
    repaired = (v * w) @ v.T
    return (repaired + repaired.T) / 2.0
