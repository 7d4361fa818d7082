"""Heat kernels e^{-t L} of the normalized Laplacian.

One entry point, ``compute_heat_kernel(lap, spec, t, method)``, gives the
kernel of each method: ``exact`` from the eigendecomposition L = Phi Lambda
Phi^T, ``taylor2`` (a second-order truncation for small times), ``fiedler``
(the Fiedler-pair form for large times) and ``auto``, which picks one of the
three from t and lambda_1. All operations are pure functions of immutable
inputs.

``_heat_vectors`` states each method's formula once and applies it to a start
for a whole time grid, on one Laplacian or a stack of equal-size ones (episodes
heat stacks of graphs from the uniform vector, so no n x n kernel is built);
``spectral_decompose`` and ``compute_heat_kernel`` (``_heat_vectors`` on the
identity) are the one-matrix case of ``_decompose`` and ``_heat_vectors``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericalError, choice, instance, real, reals, square

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
    """Ascending eigenvalues and matching orthonormal eigenvector columns, of one matrix or a stack."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return np.shape(self.eigenvalues)[-1]


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
    return _decompose(square("Laplacian", lap))


def _decompose(lap: np.ndarray) -> SpectralDecomposition:
    """``spectral_decompose`` of each matrix of a ``(..., n, n)`` stack of checked Laplacians, in
    one ``eigh``: ``eigh`` gives each matrix the bits of a one-matrix call. Each matrix is
    checked; an error names the first that fails."""
    try:
        w, v = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    low = w[..., :1][w[..., :1] < -EIGENVALUE_CLAMP]
    if low.size:
        raise NumericalError(
            f"eigenvalue {low[0]:.3e} below zero beyond tolerance; input is not a normalized Laplacian"
        )
    w = np.where(w < 0.0, 0.0, w)
    r = ((v * w[..., None, :]) @ v.swapaxes(-1, -2) - lap).reshape(*lap.shape[:-2], 1, -1)
    residual = np.sqrt(r @ r.swapaxes(-1, -2))[..., 0, 0]  # Frobenius norms as dot products
    high = residual[residual > RECONSTRUCTION_TOL]
    if high.size:
        raise NumericalError(f"eigendecomposition residual {high[0]:.3e} exceeds {RECONSTRUCTION_TOL}")
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
        instance("spec", spec, SpectralDecomposition)
        w, v = reals("spec eigenvalues", spec.eigenvalues), square("spec eigenvectors", spec.eigenvectors)
        if w.shape != v.shape[:1] or lap is not None and lap.shape != v.shape:
            raise ContractError("spec must be an n-eigenpair SpectralDecomposition of the n-node Laplacian")
        spec = SpectralDecomposition(w, v)
    n = len(lap) if spec is None else spec.n
    matrix = _heat_vectors(lap, spec, [t], method, np.eye(n))[..., 0]
    return HeatKernel(t=t, matrix=matrix, method=str(_formulas(method, spec, [t])[0]))


def _formulas(method: str, spec: SpectralDecomposition | None, times) -> np.ndarray:
    """The formula ``method`` uses at each of ``times`` for each matrix of ``spec``: shape
    ``spec.eigenvalues.shape[:-1] + (len(times),)``, or ``(len(times),)`` where every matrix
    uses the same. ``auto`` picks by :func:`select_heat_method`, each matrix from its own
    lambda_1 (``spec`` may be None where every time is below ``SMALL_TIME_DEFAULT``); the
    Fiedler form gives way to the exact one below 2 nodes."""
    t = np.asarray(times, dtype=float)
    if method != METHOD_AUTO:
        return np.full(t.shape, METHOD_EXACT if method == METHOD_FIEDLER and spec.n < 2 else method)
    lam1 = spec.eigenvalues[..., 1:2] if spec is not None and spec.n >= 2 else np.zeros(1)
    # A lambda_1 at most EIGENVALUE_CLAMP never takes fiedler; the maximum only keeps 0 from dividing.
    fiedler = (lam1 > EIGENVALUE_CLAMP) & (t > FIEDLER_TIME_FACTOR / np.maximum(lam1, EIGENVALUE_CLAMP))
    return np.where(t < SMALL_TIME_DEFAULT, METHOD_TAYLOR2, np.where(fiedler, METHOD_FIEDLER, METHOD_EXACT))


@np.errstate(over="ignore", invalid="ignore")
def _heat_vectors(lap: np.ndarray | None, spec: SpectralDecomposition | None, times: list, method: str, u):
    """Heat ``e^{-tL} u`` of the start ``u`` at each of ``times``, on checked arguments, for one
    n-node Laplacian or each of a stack (leading axes of ``lap`` and ``spec``).

    ``u`` is the float u0 on every node, whose heat has shape ``(..., n, len(times))``, or, for
    one Laplacian at one time, an ``(n, k)`` matrix, whose heat has shape ``(n, k, 1)``. Each
    matrix takes each time's formula from :func:`_formulas`: ``Phi (e^{-Lambda t} * Phi^T u)``
    for all exact times in one product, ``u - t L u + t^2 L (L u) / 2`` for taylor2 and
    ``u - e^{-lambda_1 t} phi_1 (phi_1 . u)`` for fiedler (u at t = 0). Each formula runs once,
    over the times any matrix takes it; ``matmul`` over a stack gives each matrix the bits of a
    one-matrix call.

    Heat that overflows raises ``ConfigError`` naming the first such time, the method and
    a float ``u``; numpy's overflow and invalid-value warnings are silenced here."""
    u0 = u if np.ndim(u) == 0 else None
    u = u if u0 is None else np.full((lap if spec is None else spec.eigenvectors).shape[:-1] + (1,), u0)
    picked, grid = _formulas(method, spec, times), np.asarray(times, dtype=float)
    heat = np.empty(u.shape + grid.shape)
    for m in set(picked.ravel().tolist()):
        takes = picked == m
        cols = takes.reshape(-1, grid.size).any(axis=0)
        takes, t = takes[..., None, None, cols], grid[cols]
        # Each part is (..., n, times) from a u0 start and (n, k) from a matrix start at one time.
        if m == METHOD_EXACT:
            w, v = spec.eigenvalues, spec.eigenvectors
            part = v @ (np.exp(-w[..., None] * t) * (v.swapaxes(-1, -2) @ u))
        elif m == METHOD_TAYLOR2:
            lu = lap @ u
            part = u - lu * t + (lap @ lu) * (t * t / 2)
        else:
            phi = spec.eigenvectors[..., 1]
            decay = np.where(t == 0, 0.0, np.exp(-spec.eigenvalues[..., 1, None, None] * t))
            part = u - phi[..., None] * (phi[..., None, :] @ u) * decay
        heat[..., cols] = np.where(takes, part.reshape(u.shape + t.shape), heat[..., cols])
    finite = np.isfinite(heat).reshape(-1, grid.size).all(axis=0)
    if not finite.all():
        raise _overflow(times[np.argmin(finite)], u0, method)
    return heat if u0 is None else heat[..., 0, :]


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
    return str(_formulas(METHOD_AUTO, spec, [t])[0])


@np.errstate(over="ignore", invalid="ignore")
def propagate_heat(hk: HeatKernel, u0: float) -> HeatState:
    """Evolve the uniform initial condition u0 on every node through the kernel.

    Heat that overflows raises ``ConfigError``, without a numpy warning."""
    instance("hk", hk, HeatKernel)
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
    w, v = np.linalg.eigh(-exact.t * (lap + f))  # its exponential, without the Laplacian clamp
    return float(np.linalg.norm(exact.matrix - (v * np.exp(w)) @ v.T))
