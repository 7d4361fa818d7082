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
from .embedding import MetricConfig, wl_embed_batch
from .errors import ContractError
from .gdtw import _cumulative_costs, cross_distances


@dataclass(frozen=True)
class EvolutionKernelMatrix:
    k: np.ndarray
    sigma: float
    psd_repair: str


def distance_matrix(
    episodes: list[TemporalEpisode], cfg: MetricConfig = MetricConfig()
) -> np.ndarray:
    """Symmetric matrix of pairwise alignment distances, zero diagonal.

    Every snapshot is embedded exactly once; each unordered pair is aligned
    once and mirrored, so symmetry is exact by construction. Pairs are aligned
    one matrix row at a time, which bounds the extra memory to O(n * T^2).
    """
    steps = len(episodes[0].times) if episodes else 0
    return _prefix_distance_matrices(episodes, cfg, [steps])[steps]


def _prefix_distance_matrices(
    episodes: list[TemporalEpisode], cfg: MetricConfig, step_counts
) -> dict[int, np.ndarray]:
    """``distance_matrix`` of the episodes cut to their first s snapshots, for each s.

    Every snapshot is embedded once for all s. The cross distances and the
    alignment run once per s on the prefix rows alone: BLAS may round a
    sub-block of a larger product differently from the product of the
    sub-block, so one product over the longest grid would not reproduce the
    shorter ones bit for bit.
    """
    n = len(episodes)
    if n == 0:
        return {int(s): np.zeros((0, 0)) for s in step_counts}
    grid = episodes[0].times
    for e in episodes[1:]:
        if len(e.times) != len(grid) or not np.array_equal(e.times, grid):
            raise ContractError("episodes are not on a common time grid")
    steps = len(grid)
    if any(not 1 <= s <= steps for s in step_counts):
        raise ContractError(f"step counts {sorted(step_counts)} are not all within 1..{steps}")

    embeddings = wl_embed_batch([snap for e in episodes for snap in e.snapshots], cfg)
    d = {}
    width = steps
    for s in sorted({int(s) for s in step_counts}, reverse=True):
        # Move each episode's first s rows to the front of the buffer, in
        # place, so no second stack is alive; block i lands at or before its
        # source and before every block not yet moved.
        if s < width:
            for i in range(1, n):
                embeddings[i * s:(i + 1) * s] = embeddings[i * width:i * width + s]
            width = s
        d[s] = _alignment_distances(embeddings[:n * s], n)
    return d


def _alignment_distances(embeddings: np.ndarray, n: int) -> np.ndarray:
    """Distance matrix of n episodes whose snapshot embeddings are stacked in order."""
    steps = len(embeddings) // n
    blocks = cross_distances(embeddings, embeddings).reshape(n, steps, n, steps)
    d = np.zeros((n, n))
    for i in range(n - 1):
        costs = blocks[i, :, i + 1:, :].transpose(0, 2, 1)
        d[i, i + 1:] = d[i + 1:, i] = _cumulative_costs(costs)[steps, steps]
    return d


def evolution_kernel(
    d: np.ndarray, gamma_scale: float = 1.0, repair: str = "clip"
) -> EvolutionKernelMatrix:
    """K(i, j) = exp(-d(i, j) / sigma), sigma = gamma_scale * median off-diagonal distance.

    An empty or all-zero off-diagonal falls back to sigma = 1 (the kernel of a
    zero matrix is all ones either way). With repair="clip" the matrix is
    eigendecomposed, negative eigenvalues zeroed, reconstructed and
    re-symmetrized; that trades the exact unit diagonal for positive
    semidefiniteness.
    """
    if gamma_scale <= 0:
        raise ValueError(f"gamma_scale must be positive, got {gamma_scale}")
    if repair not in ("none", "clip"):
        raise ValueError(f"repair must be 'none' or 'clip', got {repair!r}")
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    off = d[~np.eye(n, dtype=bool)]
    if off.size == 0:
        sigma = 1.0
    else:
        median = float(np.median(off))
        sigma = gamma_scale * median if median > 0 else 1.0
    k = np.exp(-d / sigma)
    if repair == "clip":
        k = clip_psd(k)
    return EvolutionKernelMatrix(k=k, sigma=sigma, psd_repair=repair)


def clip_psd(k: np.ndarray) -> np.ndarray:
    """Project onto the PSD cone by zeroing negative eigenvalues."""
    w, v = np.linalg.eigh(k)
    w = np.clip(w, 0.0, None)
    repaired = (v * w) @ v.T
    return (repaired + repaired.T) / 2.0


def export_matrix_csv(m: np.ndarray, path, ids=None) -> None:
    """Row-major CSV with a header of graph ids, for external analysis."""
    m = np.asarray(m)
    if ids is None:
        ids = list(range(m.shape[0]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [str(i) for i in ids])
        for gid, row in zip(ids, m):
            writer.writerow([str(gid)] + [repr(float(x)) for x in row])
