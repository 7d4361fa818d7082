"""Heat kernels e^{-t L} of the normalized Laplacian.

The exact kernel comes from the eigendecomposition L = Phi Lambda Phi^T; a
second-order Taylor truncation covers small times and a Fiedler-pair form
covers large times. All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericalError, real, square

EIGENVALUE_CLAMP = 1e-9
RECONSTRUCTION_TOL = 1e-8

METHOD_EXACT = "exact"
METHOD_TAYLOR2 = "taylor2"
METHOD_FIEDLER = "fiedler"
METHOD_AUTO = "auto"
HEAT_METHODS = (METHOD_EXACT, METHOD_TAYLOR2, METHOD_FIEDLER, METHOD_AUTO)

# Regime defaults for auto selection: the truncated Taylor form is cubic in t,
# so it is restricted to t below this threshold; the Fiedler form needs the
# non-constant modes to have decayed, i.e. t well past 1/lambda_1.
SMALL_TIME_DEFAULT = 0.1
FIEDLER_TIME_FACTOR = 10.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class HeatKernel:
    t: float
    matrix: np.ndarray
    method: str


@dataclass(frozen=True)
class HeatState:
    """Per-node heat amounts at time t."""

    t: float
    heat: np.ndarray


def spectral_decompose(lap: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a symmetric normalized Laplacian.

    Eigenvalues within EIGENVALUE_CLAMP below zero are clamped to 0 so that
    exponentials never exceed 1 from rounding noise. Reconstruction and
    orthonormality are verified to RECONSTRUCTION_TOL.
    """
    lap = square("Laplacian", lap)
    try:
        w, v = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if len(w) and w[0] < -EIGENVALUE_CLAMP:
        raise NumericalError(
            f"eigenvalue {w[0]:.3e} below zero beyond tolerance; input is not a normalized Laplacian"
        )
    w = np.where(w < 0.0, 0.0, w)
    residual = float(np.linalg.norm((v * w) @ v.T - lap))
    if residual > RECONSTRUCTION_TOL:
        raise NumericalError(f"eigendecomposition residual {residual:.3e} exceeds {RECONSTRUCTION_TOL}")
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def heat_kernel_exact(spec: SpectralDecomposition, t: float) -> HeatKernel:
    """Closed-form kernel Phi e^{-t Lambda} Phi^T; entries are non-negative."""
    t = real("time", t, 0)
    decay = np.exp(-t * spec.eigenvalues)
    matrix = (spec.eigenvectors * decay) @ spec.eigenvectors.T
    return HeatKernel(t=t, matrix=matrix, method=METHOD_EXACT)


def heat_kernel_taylor2(lap: np.ndarray, t: float) -> HeatKernel:
    """Second-order truncation I - tL + (tL)^2/2, intended for small t."""
    t = real("time", t, 0)
    lap = square("Laplacian", lap)
    n = lap.shape[0]
    tl = t * lap
    matrix = np.eye(n) - tl + 0.5 * (tl @ tl)
    return HeatKernel(t=t, matrix=matrix, method=METHOD_TAYLOR2)


def heat_kernel_fiedler(spec: SpectralDecomposition, t: float) -> HeatKernel:
    """Large-time form I - e^{-lambda_1 t} phi_1 phi_1^T.

    lambda_1 is the second-smallest eigenvalue. t = 0 returns the identity so
    that every method agrees at the initial time.
    """
    if spec.n < 2:
        raise ContractError("the Fiedler form needs at least 2 nodes")
    t = real("time", t, 0)
    n = spec.n
    if t == 0:
        return HeatKernel(t=0.0, matrix=np.eye(n), method=METHOD_FIEDLER)
    lam1 = spec.eigenvalues[1]
    phi1 = spec.eigenvectors[:, 1]
    matrix = np.eye(n) - np.exp(-lam1 * t) * np.outer(phi1, phi1)
    return HeatKernel(t=t, matrix=matrix, method=METHOD_FIEDLER)


def compute_heat_kernel(
    lap: np.ndarray, spec: SpectralDecomposition | None, t: float, method: str = METHOD_EXACT
) -> HeatKernel:
    """Dispatch on ``method``; ``auto`` picks the regime from t and lambda_1.

    ``spec`` is read only where :func:`reads_spectrum` says so: ``taylor2``,
    and ``auto`` below ``SMALL_TIME_DEFAULT``, need just ``lap``, so ``spec``
    may be None there and the caller can skip the eigendecomposition.

    The Fiedler form needs two nodes; on fewer the exact kernel stands in (on
    one node every method gives [[1]]) and the result's ``method`` says so.
    """
    t = real("time", t, 0)
    if spec is None and reads_spectrum(method, t):
        raise ContractError(f"the {method!r} heat kernel at t={t} needs the spectral decomposition")
    if method == METHOD_AUTO:
        method = select_heat_method(spec, t)
    if method == METHOD_EXACT or (method == METHOD_FIEDLER and spec.n < 2):
        return heat_kernel_exact(spec, t)
    if method == METHOD_TAYLOR2:
        return heat_kernel_taylor2(lap, t)
    if method == METHOD_FIEDLER:
        return heat_kernel_fiedler(spec, t)
    raise ConfigError(f"unknown heat-kernel method {method!r}")


def reads_spectrum(method: str, t: float) -> bool:
    """Whether ``compute_heat_kernel`` reads the spectral decomposition for ``method`` at ``t``."""
    return method in (METHOD_EXACT, METHOD_FIEDLER) or (method == METHOD_AUTO and t >= SMALL_TIME_DEFAULT)


def select_heat_method(spec: SpectralDecomposition | None, t: float) -> str:
    """``taylor2`` below ``SMALL_TIME_DEFAULT`` (``spec`` unread, may be None), else
    ``fiedler`` once t is past ``FIEDLER_TIME_FACTOR / lambda_1``, else ``exact``."""
    if t < SMALL_TIME_DEFAULT:
        return METHOD_TAYLOR2
    if spec.n >= 2:
        lam1 = spec.eigenvalues[1]
        if lam1 > EIGENVALUE_CLAMP and t > FIEDLER_TIME_FACTOR / lam1:
            return METHOD_FIEDLER
    return METHOD_EXACT


def propagate_heat(hk: HeatKernel, u0: float) -> HeatState:
    """Evolve the uniform initial condition u0 on every node through the kernel."""
    u0 = real("initial heat", u0, 0, above=True)
    n = hk.matrix.shape[0]
    heat = hk.matrix @ np.full(n, u0)
    return HeatState(t=hk.t, heat=heat)


def perturbation_gap(lap: np.ndarray, f: np.ndarray, t: float) -> float:
    """Frobenius gap between e^{-t L} and e^{-t (L + F)} for a symmetric perturbation F.

    F must have the shape of L and be finite and exactly symmetric.
    """
    lap, f = square("Laplacian", lap), square("perturbation", f, symmetric=True)
    if f.shape != lap.shape:
        raise ContractError(f"perturbation of shape {f.shape} for a Laplacian of shape {lap.shape}")
    exact = heat_kernel_exact(spectral_decompose(lap), t)
    perturbed = _symmetric_expm(-exact.t * (lap + f))
    return float(np.linalg.norm(exact.matrix - perturbed))


def _symmetric_expm(s: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via eigh, no Laplacian-specific clamping."""
    w, v = np.linalg.eigh(s)
    return (v * np.exp(w)) @ v.T
