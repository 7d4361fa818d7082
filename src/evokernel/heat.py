"""Heat kernels e^{-t L} of the normalized Laplacian.

One entry point, ``compute_heat_kernel(lap, spec, t, method)``, gives the
kernel of each method: ``exact`` from the eigendecomposition L = Phi Lambda
Phi^T, ``taylor2`` (a second-order truncation for small times), ``fiedler``
(the Fiedler-pair form for large times) and ``auto``, which picks one of the
three from t and lambda_1. All operations are pure functions of immutable
inputs.

``_heat_vectors`` states each method's formula once and applies it to a start
for a whole time grid. Episodes start it from the uniform vector, so no n x n
kernel is built; ``compute_heat_kernel`` is ``_heat_vectors`` on the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericalError, choice, real, reals, square

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
    exponentials never exceed 1 from rounding noise. The Frobenius residual
    of the reconstruction Phi Lambda Phi^T must be within RECONSTRUCTION_TOL;
    orthonormality of the eigenvectors is left to ``eigh`` and not checked.
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


def compute_heat_kernel(
    lap: np.ndarray | None, spec: SpectralDecomposition | None, t: float, method: str = METHOD_EXACT
) -> HeatKernel:
    """The heat kernel of ``method`` at t, ``_heat_vectors`` on the identity.

    - ``exact``: Phi e^{-t Lambda} Phi^T (Kondor & Lafferty, "Diffusion Kernels on
      Graphs", ICML 2002; Chung, *Spectral Graph Theory*, 1997); entries are non-negative.
    - ``taylor2``: the second-order truncation I - tL + (tL)^2/2, for small t.
    - ``fiedler``: the large-time form I - e^{-lambda_1 t} phi_1 phi_1^T, with lambda_1
      the second-smallest eigenvalue; t = 0 gives the identity, as every method does.
    - ``auto``: the method :func:`select_heat_method` picks from t and lambda_1.

    Each argument is read only where :func:`reads_spectrum` says so: ``taylor2``, and
    ``auto`` below ``SMALL_TIME_DEFAULT``, need just ``lap``, so ``spec`` may be None
    there and the caller can skip the eigendecomposition; the others need just ``spec``.
    A ``spec`` that is given must be finite and fit the ``lap`` that is given.

    The Fiedler form needs two nodes; on fewer the exact kernel stands in (on
    one node every method gives [[1]]) and the result's ``method`` is ``exact``.
    A kernel that overflows, as ``taylor2`` does at a large enough t, raises
    ``ConfigError``.
    """
    t = real("time", t, 0)
    choice("heat method", method, HEAT_METHODS)
    reads = reads_spectrum(method, t)
    if spec is None and reads:
        raise ContractError(f"the {method!r} heat kernel at t={t} needs the spectral decomposition")
    lap = square("Laplacian", lap) if lap is not None or not reads else None
    if spec is not None:
        if not isinstance(spec, SpectralDecomposition):
            raise ContractError(f"spec must be a SpectralDecomposition, got {type(spec).__name__}")
        w, v = reals("spec eigenvalues", spec.eigenvalues), square("spec eigenvectors", spec.eigenvectors)
        if w.shape != v.shape[:1] or lap is not None and lap.shape != v.shape:
            raise ContractError("spec must be an n-eigenpair SpectralDecomposition of the n-node Laplacian")
        spec = SpectralDecomposition(w, v)
    n = len(lap) if spec is None else spec.n
    matrix = _heat_vectors(lap, spec, [t], method, np.eye(n))[..., 0]
    return HeatKernel(t=t, matrix=matrix, method=_formula(method, spec, t, n))


def _formula(method: str, spec: SpectralDecomposition | None, t: float, n: int) -> str:
    """The formula ``method`` uses at t on n nodes: ``auto`` picks by :func:`select_heat_method`,
    and the Fiedler form gives way to the exact one below 2 nodes."""
    method = select_heat_method(spec, t) if method == METHOD_AUTO else method
    return METHOD_EXACT if method == METHOD_FIEDLER and n < 2 else method


@np.errstate(over="ignore", invalid="ignore")
def _heat_vectors(lap: np.ndarray | None, spec: SpectralDecomposition | None, times: list, method: str, u):
    """Heat ``e^{-tL} u`` of the start ``u`` at each of ``times``, on checked arguments.

    ``u`` is the float u0 on every node or an ``(n, k)`` matrix, and the heat has shape
    ``(n, len(times))`` or ``(n, k, len(times))``. Each time takes its formula from
    :func:`_formula`: ``Phi (e^{-Lambda t} * Phi^T u)`` for all exact times in one product,
    ``u - t L u + t^2 L (L u) / 2`` for taylor2 and ``u - e^{-lambda_1 t} phi_1 (phi_1 . u)``
    for fiedler (u at t = 0).

    Heat that overflows raises ``ConfigError`` naming the first such time, the method and
    a float ``u``; numpy's overflow and invalid-value warnings are silenced here."""
    u0 = u if np.ndim(u) == 0 else None
    u = u if u0 is None else np.full(len(lap), u0, dtype=float)
    picked = [_formula(method, spec, t, len(u)) for t in times]
    heat = np.empty(u.shape + (len(times),))
    for m in set(picked):
        cols = [k for k, p in enumerate(picked) if p == m]
        t = np.array([times[k] for k in cols])
        if m == METHOD_EXACT:
            w, v = spec.eigenvalues, spec.eigenvectors
            decay = np.exp(-w.reshape(w.shape + (1,) * u.ndim) * t)
            # axes 0 and 1 are the matrix axes, so a matrix start is one product per time
            heat[..., cols] = np.matmul(v, decay * (v.T @ u)[..., None], axes=[(0, 1)] * 3)
        elif m == METHOD_TAYLOR2:
            lu = lap @ u
            heat[..., cols] = u[..., None] - lu[..., None] * t + (lap @ lu)[..., None] * (t * t / 2)
        else:
            phi = spec.eigenvectors[:, 1]
            decay = np.where(t == 0, 0.0, np.exp(-spec.eigenvalues[1] * t))
            heat[..., cols] = u[..., None] - np.multiply.outer(phi, phi @ u)[..., None] * decay
    finite = np.isfinite(heat).reshape(-1, len(times)).all(axis=0)
    if not finite.all():
        raise _overflow(times[np.argmin(finite)], u0, method)
    return heat


def _overflow(t: float, u0: float | None, method: str) -> ConfigError:
    """The error for heat at t that overflows: from the float ``u0``, or of the kernel if None."""
    heat = "heat kernel" if u0 is None else f"heat from u0={u0:g}"
    return ConfigError(f"{heat} at t={t:g} overflows under the {method!r} heat method")


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


@np.errstate(over="ignore", invalid="ignore")
def propagate_heat(hk: HeatKernel, u0: float) -> HeatState:
    """Evolve the uniform initial condition u0 on every node through the kernel.

    Heat that overflows raises ``ConfigError``, without a numpy warning."""
    u0 = real("initial heat", u0, 0, above=True)
    n = hk.matrix.shape[0]
    heat = hk.matrix @ np.full(n, u0)
    if not np.isfinite(heat).all():
        raise _overflow(hk.t, u0, hk.method)
    return HeatState(t=hk.t, heat=heat)


def perturbation_gap(lap: np.ndarray, f: np.ndarray, t: float) -> float:
    """Frobenius gap between e^{-t L} and e^{-t (L + F)} for a symmetric perturbation F.

    F must have the shape of L and be finite and exactly symmetric.
    """
    lap, f = square("Laplacian", lap), square("perturbation", f, symmetric=True)
    if f.shape != lap.shape:
        raise ContractError(f"perturbation of shape {f.shape} for a Laplacian of shape {lap.shape}")
    exact = compute_heat_kernel(lap, spectral_decompose(lap), t, METHOD_EXACT)
    perturbed = _symmetric_expm(-exact.t * (lap + f))
    return float(np.linalg.norm(exact.matrix - perturbed))


def _symmetric_expm(s: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via eigh, no Laplacian-specific clamping."""
    w, v = np.linalg.eigh(s)
    return (v * np.exp(w)) @ v.T
