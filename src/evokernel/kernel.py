"""Pairwise episode distances and the similarity kernel fed to the SVM.

The kernel is K = exp(-d / sigma) with a median-distance bandwidth. Alignment
distances violate the triangle inequality, so K can be indefinite; eigenvalue
clipping is available (and on by default downstream) to repair it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .augment import TemporalEpisode
from .embedding import MetricConfig, _count_distances, _wl_counts
from .errors import ContractError, choice, real, square
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
    Snapshot distances and alignment tables are built for a block of about
    ``_BLOCK_SNAPSHOTS`` snapshot rows at a time, so beyond the (n * T, dim)
    count matrix and the result the working memory grows as O(n * T), not
    (n * T)^2.
    """
    if not episodes:
        return np.zeros((0, 0))
    grid = episodes[0].times
    for e in episodes:
        if len(e.snapshots) != len(grid) or not np.array_equal(e.times, grid):
            raise ContractError("episodes are not on a common time grid with one snapshot per time")
    counts, sq = _wl_counts([snap for e in episodes for snap in e.snapshots], cfg)
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
    s-snapshot prefixes, bit for bit.
    """
    if any(not 1 <= s <= steps for s in step_counts):
        raise ContractError(f"step counts {sorted(step_counts)} are not all within 1..{steps}")
    step_counts = sorted({int(s) for s in step_counts})
    n = len(counts) // steps
    d = {s: np.zeros((n, n)) for s in step_counts}
    per_block = max(1, _BLOCK_SNAPSHOTS // steps)
    for lo in range(0, n - 1, per_block):
        hi = min(lo + per_block, n - 1)
        # Rows of episodes lo..hi-1 against every episode after lo; the pairs
        # (i, j > i) among them are aligned in one stack of tables.
        rows, cols = slice(lo * steps, hi * steps), slice((lo + 1) * steps, None)
        block = _count_distances(counts[rows], counts[cols], sq[rows], sq[cols])
        block = block.reshape(hi - lo, steps, n - lo - 1, steps)
        r, c = np.triu_indices(hi - lo, 0, n - lo - 1)
        gamma = _cumulative_costs(block[r, :, c, :].transpose(1, 2, 0))
        i, j = r + lo, c + lo + 1
        for s in step_counts:
            d[s][i, j] = d[s][j, i] = gamma[s, s]
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


def export_matrix_csv(m: np.ndarray, path, ids=None) -> None:
    """Row-major CSV of a finite square matrix with a header of graph ids, for external analysis."""
    m = np.asarray(m)
    rows = m.shape[0] if m.ndim else 0
    ids = list(range(rows)) if ids is None else ids
    if m.shape != (len(ids), len(ids)):
        raise ContractError(f"matrix of shape {m.shape} for {len(ids)} ids")
    m = square("matrix", m)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [str(i) for i in ids])
        for gid, row in zip(ids, m):
            writer.writerow([str(gid)] + [repr(float(x)) for x in row])
