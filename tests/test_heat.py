from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from evokernel import augment as augment_module
from evokernel import heat as heat_module

from evokernel.errors import ConfigError, NumericalError
from evokernel.graphs import Graph, normalized_laplacian
from evokernel.heat import (
    EIGENVALUE_CLAMP,
    METHOD_EXACT,
    METHOD_FIEDLER,
    METHOD_TAYLOR2,
    SpectralDecomposition,
    _heat_vectors,
    compute_heat_kernel,
    perturbation_gap,
    propagate_heat,
    reads_spectrum,
    select_heat_method,
    spectral_decompose,
)

from .oracles import (
    expm_oracle,
    random_connected_graph,
    random_graph,
    reference_heat_kernel,
    reference_heat_state,
)


def _spec(g):
    return spectral_decompose(normalized_laplacian(g))


def test_decompose_single_edge(k2):
    spec = _spec(k2)
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_decompose_path_graph(p3):
    spec = _spec(p3)
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)


def test_decompose_zero_matrix():
    spec = spectral_decompose(np.zeros((3, 3)))
    assert np.array_equal(spec.eigenvalues, np.zeros(3))
    assert np.allclose(spec.eigenvectors @ spec.eigenvectors.T, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_decompose_reconstruction_and_orthonormality(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(2, 40)), 0.25)
    lap = normalized_laplacian(g)
    spec = spectral_decompose(lap)
    phi, lam = spec.eigenvectors, spec.eigenvalues
    assert np.linalg.norm((phi * lam) @ phi.T - lap) <= 1e-8
    assert np.linalg.norm(phi.T @ phi - np.eye(len(lam))) <= 1e-8
    assert np.all(np.diff(lam) >= 0)
    assert lam[0] >= 0.0


def test_decompose_rejects_non_laplacian():
    with pytest.raises(NumericalError, match="below zero"):
        spectral_decompose(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_reconstruction_residual_up_to_the_tolerance_passes(p3, monkeypatch):
    """``spectral_decompose`` takes a residual equal to RECONSTRUCTION_TOL and refuses one
    just above it, as its docstring's "within" states."""
    lap = normalized_laplacian(p3)
    w, v = np.linalg.eigh(lap)
    r = ((v * np.where(w < 0.0, 0.0, w)[None, :]) @ v.T - lap).reshape(1, -1)
    residual = np.sqrt(r @ r.T)[0, 0]  # the Frobenius norm as _decompose computes it
    assert residual > 0
    monkeypatch.setattr(heat_module, "RECONSTRUCTION_TOL", residual)
    spectral_decompose(lap)
    monkeypatch.setattr(heat_module, "RECONSTRUCTION_TOL", np.nextafter(residual, 0))
    with pytest.raises(NumericalError, match="residual"):
        spectral_decompose(lap)


def test_eigh_failure_is_a_numerical_error(k2, monkeypatch):
    def fails(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NumericalError, match="eigendecomposition failed: Eigenvalues did not converge"):
        _spec(k2)


def test_exact_kernel_at_time_zero(c4):
    hk = compute_heat_kernel(None, _spec(c4), 0.0, METHOD_EXACT)
    assert np.allclose(hk.matrix, np.eye(4), atol=1e-12)
    assert hk.method == METHOD_EXACT


def test_exact_kernel_single_edge_closed_form(k2):
    hk = compute_heat_kernel(None, _spec(k2), 1.0, METHOD_EXACT)
    on = (1.0 + np.exp(-2.0)) / 2.0
    off = (1.0 - np.exp(-2.0)) / 2.0
    assert np.allclose(hk.matrix, [[on, off], [off, on]], atol=1e-12)


def test_exact_kernel_matches_expm_oracle():
    rng = np.random.default_rng(42)
    g = random_graph(rng, 30, 0.2)
    lap = normalized_laplacian(g)
    ours = compute_heat_kernel(None, spectral_decompose(lap), 0.7, METHOD_EXACT).matrix
    reference = expm_oracle(-0.7 * lap)
    assert np.linalg.norm(ours - reference) <= 1e-8


def test_exact_kernel_rejects_negative_time(k2):
    with pytest.raises(ValueError):
        compute_heat_kernel(None, _spec(k2), -0.5, METHOD_EXACT)


def test_taylor_kernel_at_time_zero(p3):
    hk = compute_heat_kernel(normalized_laplacian(p3), None, 0.0, METHOD_TAYLOR2)
    assert np.array_equal(hk.matrix, np.eye(3))
    assert hk.method == METHOD_TAYLOR2


def test_taylor_kernel_formula_and_remainder_bound(k2):
    lap = normalized_laplacian(k2)
    t = 0.1
    hk = compute_heat_kernel(lap, None, t, METHOD_TAYLOR2)
    expected = np.eye(2) - t * lap + 0.5 * (t * lap) @ (t * lap)
    assert np.array_equal(hk.matrix, expected)
    exact = compute_heat_kernel(None, _spec(k2), t, METHOD_EXACT).matrix
    assert np.max(np.abs(hk.matrix - exact)) <= (2 * t) ** 3 / 6.0


def test_taylor_error_shrinks_cubically_on_halving():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 12, 0.3)
    lap = normalized_laplacian(g)
    spec = spectral_decompose(lap)

    def max_err(t):
        taylor2 = compute_heat_kernel(lap, None, t, METHOD_TAYLOR2).matrix
        return np.max(np.abs(taylor2 - compute_heat_kernel(None, spec, t, METHOD_EXACT).matrix))

    ratio = max_err(0.1) / max_err(0.05)
    assert 6.0 <= ratio <= 10.0


def test_taylor_convergence_order_estimate():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 15, 0.3)
    lap = normalized_laplacian(g)
    spec = spectral_decompose(lap)
    ts = np.array([0.2, 0.1, 0.05, 0.025])
    errs = [
        np.linalg.norm(
            compute_heat_kernel(lap, None, t, METHOD_TAYLOR2).matrix
            - compute_heat_kernel(None, spec, t, METHOD_EXACT).matrix
        )
        for t in ts
    ]
    order = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert 2.5 <= order <= 3.5


def test_fiedler_kernel_single_edge_closed_form(k2):
    hk = compute_heat_kernel(None, _spec(k2), 5.0, METHOD_FIEDLER)
    outer = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(hk.matrix, np.eye(2) - np.exp(-10.0) * outer, atol=1e-12)
    assert hk.method == METHOD_FIEDLER


def test_fiedler_kernel_tends_to_identity():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 12, 0.3)
    hk = compute_heat_kernel(None, _spec(g), 5000.0, METHOD_FIEDLER)
    assert np.allclose(hk.matrix, np.eye(12), atol=1e-10)


def test_fiedler_kernel_time_zero_is_identity(k2):
    assert np.array_equal(compute_heat_kernel(None, _spec(k2), 0.0, METHOD_FIEDLER).matrix, np.eye(2))


@pytest.mark.parametrize("n", [0, 1])
def test_fiedler_request_below_two_nodes_falls_back_to_exact(n):
    g = Graph(n, [])
    lap = normalized_laplacian(g)
    for given in (lap, None):  # the Laplacian is not read
        hk = compute_heat_kernel(given, spectral_decompose(lap), 2.0, METHOD_FIEDLER)
        assert hk.method == METHOD_EXACT
        assert np.array_equal(hk.matrix, np.eye(n))


def test_fiedler_offset_corrected_error_decreases():
    # The raw gap tends to ||I - phi0 phi0^T||, so the meaningful error is the
    # deviation from that asymptotic offset; it must shrink as t grows.
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 14, 0.3)
    spec = _spec(g)
    phi0 = spec.eigenvectors[:, 0]
    offset = np.eye(14) - np.outer(phi0, phi0)
    errs = [
        np.linalg.norm(
            compute_heat_kernel(None, spec, t, METHOD_FIEDLER).matrix
            - compute_heat_kernel(None, spec, t, METHOD_EXACT).matrix
            - offset
        )
        for t in (5.0, 10.0, 20.0, 40.0)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_method_auto_selection(k2):
    spec = _spec(k2)  # lambda_1 = 2, so the large-time regime starts at t = 5
    assert select_heat_method(spec, 0.05) == METHOD_TAYLOR2
    assert select_heat_method(spec, 1.0) == METHOD_EXACT
    assert select_heat_method(spec, 6.0) == METHOD_FIEDLER
    hk = compute_heat_kernel(normalized_laplacian(k2), spec, 6.0, "auto")
    assert hk.method == METHOD_FIEDLER


def test_boolean_eigenvalues_read_as_zero_and_one():
    """A spectrum numpy reads as real numbers is cast to floats before any arithmetic."""
    hk = compute_heat_kernel(None, SpectralDecomposition(np.array([False, True]), np.eye(2)), 1.0)
    assert np.array_equal(hk.matrix, np.diag(np.exp([-0.0, -1.0])))
    assert hk.method == METHOD_EXACT


def test_spectrum_is_optional_only_where_it_is_not_read(p3):
    lap = normalized_laplacian(p3)
    spec = _spec(p3)
    for method, t in (("taylor2", 0.5), ("auto", 0.05)):
        assert not reads_spectrum(method, t)
        without = compute_heat_kernel(lap, None, t, method)
        assert np.array_equal(without.matrix, compute_heat_kernel(lap, spec, t, method).matrix)
        assert without.method == METHOD_TAYLOR2
    for method, t in (("exact", 0.05), ("fiedler", 0.5), ("auto", 0.1), ("auto", 2.0)):
        assert reads_spectrum(method, t)
        with pytest.raises(ValueError, match="spectral decomposition"):
            compute_heat_kernel(lap, None, t, method)
    assert not reads_spectrum("bogus", 1.0)
    with pytest.raises(ValueError, match="heat method must be one of"):
        compute_heat_kernel(lap, None, 1.0, "bogus")


def test_eigenvalues_down_to_minus_the_clamp_are_clamped():
    """``spectral_decompose`` clamps an eigenvalue of exactly -EIGENVALUE_CLAMP to 0 and
    refuses one below it."""
    spec = spectral_decompose(np.diag([-EIGENVALUE_CLAMP, 1.0]))
    assert spec.eigenvalues.tolist() == [0.0, 1.0]
    with pytest.raises(NumericalError, match="below zero"):
        spectral_decompose(np.diag([-2 * EIGENVALUE_CLAMP, 1.0]))


def test_auto_takes_fiedler_only_above_the_clamp():
    """A lambda_1 of exactly EIGENVALUE_CLAMP never takes fiedler, even at t = 1e12, past
    FIEDLER_TIME_FACTOR / lambda_1; twice the clamp does."""
    for lam1, method in ((EIGENVALUE_CLAMP, METHOD_EXACT), (2 * EIGENVALUE_CLAMP, METHOD_FIEDLER)):
        spec = SpectralDecomposition(np.array([0.0, lam1]), np.eye(2))
        assert select_heat_method(spec, 1e12) == method


def test_auto_never_picks_fiedler_on_disconnected():
    g = Graph(4, [(0, 1)])  # lambda_1 = 0 (two zero rows plus one component)
    spec = _spec(g)
    assert select_heat_method(spec, 1e6) == METHOD_EXACT


def test_propagate_time_zero_is_initial_heat(c4):
    hk = compute_heat_kernel(None, _spec(c4), 0.0, METHOD_EXACT)
    state = propagate_heat(hk, 1.0)
    assert np.allclose(state.heat, np.ones(4), atol=1e-12)


def test_propagate_single_edge_conserves_uniform_heat(k2):
    state = propagate_heat(compute_heat_kernel(None, _spec(k2), 1.0, METHOD_EXACT), 1.0)
    assert np.allclose(state.heat, [1.0, 1.0], atol=1e-12)


def test_propagate_star_center_absorbs_most(star4):
    state = propagate_heat(compute_heat_kernel(None, _spec(star4), 1.0, METHOD_EXACT), 1.0)
    center, leaves = state.heat[0], state.heat[1:]
    assert np.all(center > leaves)
    # cross-check the heat vector against the expm oracle
    reference = expm_oracle(-1.0 * normalized_laplacian(star4)) @ np.ones(4)
    assert np.allclose(state.heat, reference, atol=1e-10)


def test_propagate_rejects_non_positive_heat(k2):
    with pytest.raises(ValueError):
        propagate_heat(compute_heat_kernel(None, _spec(k2), 1.0, METHOD_EXACT), 0.0)


def test_heat_that_overflows_names_u0_t_and_the_method(p3):
    """A kernel or heat beyond the float range is a ConfigError, not a numpy warning and inf or NaN."""
    lap = normalized_laplacian(p3)
    with pytest.raises(ConfigError, match="heat kernel at t=1e\\+300 overflows under the 'taylor2' heat method"):
        compute_heat_kernel(lap, None, 1e300, METHOD_TAYLOR2)
    hk = compute_heat_kernel(None, _spec(p3), 1.0, METHOD_EXACT)
    with pytest.raises(ConfigError, match="heat from u0=1.7e\\+308 at t=1 overflows under the 'exact' heat method"):
        propagate_heat(hk, 1.7e308)
    with pytest.raises(ConfigError, match="from u0=1.7e\\+308 at t=0 overflows under the 'exact' heat method"):
        _heat_vectors(lap, _spec(p3), [0.0, 1.0], METHOD_EXACT, 1.7e308)


@pytest.mark.parametrize("seed", range(4))
def test_semigroup_property(seed):
    rng = np.random.default_rng(200 + seed)
    g = random_graph(rng, int(rng.integers(2, 51)), 0.2)
    spec = _spec(g)
    for s in (0.1, 0.5, 1.0):
        for t in (0.1, 0.5, 1.0):
            lhs = (
                compute_heat_kernel(None, spec, s, METHOD_EXACT).matrix
                @ compute_heat_kernel(None, spec, t, METHOD_EXACT).matrix
            )
            rhs = compute_heat_kernel(None, spec, s + t, METHOD_EXACT).matrix
            assert np.linalg.norm(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_exact_kernel_symmetry_nonnegativity_trace(seed):
    rng = np.random.default_rng(300 + seed)
    g = random_graph(rng, int(rng.integers(2, 40)), 0.25)
    spec = _spec(g)
    for t in (0.1, 1.0, 5.0):
        h = compute_heat_kernel(None, spec, t, METHOD_EXACT).matrix
        assert np.max(np.abs(h - h.T)) <= 1e-10
        assert h.min() >= -1e-10
        assert abs(np.trace(h) - np.exp(-t * spec.eigenvalues).sum()) <= 1e-8
        heat = propagate_heat(compute_heat_kernel(None, spec, t, METHOD_EXACT), 1.0).heat
        assert heat.min() >= -1e-10  # positive initial heat stays non-negative


def test_perturbation_gap_zero_for_zero_perturbation(c4):
    lap = normalized_laplacian(c4)
    assert perturbation_gap(lap, np.zeros((4, 4)), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_perturbation_gap_linear_response(c4):
    lap = normalized_laplacian(c4)
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((4, 4))
    direction = (raw + raw.T) / 2.0
    direction /= np.linalg.norm(direction)
    gap_large = perturbation_gap(lap, 1e-3 * direction, 1.0)
    gap_small = perturbation_gap(lap, 0.5e-3 * direction, 1.0)
    assert gap_small == pytest.approx(gap_large / 2.0, rel=0.2)


def test_perturbation_gap_decreases_with_epsilon():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 10, 0.3)
    lap = normalized_laplacian(g)
    raw = rng.standard_normal((10, 10))
    direction = (raw + raw.T) / 2.0
    direction /= np.linalg.norm(direction)
    gaps = [perturbation_gap(lap, eps * direction, 1.0) for eps in (1e-2, 1e-3, 1e-4)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_perturbation_gap_rejects_non_finite(c4):
    lap = normalized_laplacian(c4)
    bad = np.full((4, 4), np.nan)
    with pytest.raises(ValueError):
        perturbation_gap(lap, bad, 1.0)


VECTOR_TIMES = [0.0, 0.05, 0.09, 0.1, 0.3, 2.0, 30.0]


@pytest.mark.parametrize("method", ["exact", "taylor2", "fiedler", "auto"])
@pytest.mark.parametrize("n, connected", [(1, False), (2, True), (6, True), (9, False), (17, True)])
def test_heat_vectors_equal_the_kernel_heat(method, n, connected):
    """Each column is the oracle kernel's heat, including fiedler at t = 0
    and on one node (the exact kernel) and auto below and above 0.1; the
    kernel of ``compute_heat_kernel`` and its method pick match the oracle too."""
    rng = np.random.default_rng(n)
    g = random_connected_graph(rng, n, 0.3) if connected else random_graph(rng, n, 0.3)
    lap = normalized_laplacian(g)
    spec = spectral_decompose(lap)
    times = VECTOR_TIMES if method != METHOD_TAYLOR2 else VECTOR_TIMES[:-1]
    heat = _heat_vectors(lap, spec, times, method, 1.5)
    assert heat.shape == (n, len(times))
    for t in VECTOR_TIMES:
        picked = reference_heat_kernel(lap, spec, t, method).method
        assert compute_heat_kernel(lap, spec, t, method).method == picked
    for k, t in enumerate(times):
        reference = reference_heat_kernel(lap, spec, t, method)
        kernel_heat = reference_heat_state(reference, 1.5).heat
        assert np.max(np.abs(heat[:, k] - kernel_heat)) <= 1e-12
        hk = compute_heat_kernel(lap, spec, t, method)
        assert np.max(np.abs(hk.matrix - reference.matrix), initial=0.0) <= 1e-12
    if method == "auto":
        picked = [select_heat_method(spec, t) for t in times]
        assert picked[:3] == [METHOD_TAYLOR2] * 3 and METHOD_EXACT in picked
        assert (METHOD_FIEDLER in picked) == (n in (2, 17))
        small = [t for t in times if not reads_spectrum(method, t)]
        assert np.array_equal(_heat_vectors(lap, None, small, method, 1.5), heat[:, : len(small)])


ORACLE_HEAT_NAMES = {n for n in vars(heat_module) if n.startswith("METHOD_")}
ORACLE_AUGMENT_NAMES = {"BoltzmannConfig", "TemporalEpisode", "snapshot_rng"}
ORACLE_SOURCE = Path(__file__).parent / "oracles.py"


def _names_imported(source: str, target) -> list[str]:
    """Names of module ``target`` that ``source`` imports: any name from it, a name it defines
    re-exported by another evokernel module, and the module itself."""
    own_imports = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(inspect.getsource(target)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith(target.__name__)]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("evokernel"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                defined = alias.name not in own_imports and value is getattr(target, alias.name, None) is not None
                if module is target or value is target or defined:
                    found.append(alias.name)
    return found


def test_oracles_import_no_heat_formula():
    """The oracles stay independent of the formulas they check: from ``evokernel.heat``
    they take only the method names."""
    assert set(_names_imported(ORACLE_SOURCE.read_text(), heat_module)) <= ORACLE_HEAT_NAMES
    assert _names_imported("from evokernel.heat import spectral_decompose", heat_module) == ["spectral_decompose"]
    assert _names_imported("from evokernel import compute_heat_kernel", heat_module) == ["compute_heat_kernel"]
    assert _names_imported("from evokernel import heat", heat_module) == ["heat"]
    assert _names_imported("import evokernel.heat as h", heat_module) == ["evokernel.heat"]
    assert _names_imported("from evokernel.augment import BoltzmannConfig", heat_module) == []


def test_oracles_import_no_boltzmann_formula():
    """From ``evokernel.augment`` the oracles take only its data classes and ``snapshot_rng``,
    which defines the draws: the Boltzmann weights are their own."""
    assert set(_names_imported(ORACLE_SOURCE.read_text(), augment_module)) <= ORACLE_AUGMENT_NAMES
    assert _names_imported("from evokernel import heat_distribution", augment_module) == ["heat_distribution"]
    assert _names_imported("from evokernel.augment import _rescaled", augment_module) == ["_rescaled"]
    assert _names_imported("from evokernel.augment import HeatState", augment_module) == ["HeatState"]
    assert _names_imported("from evokernel.heat import METHOD_EXACT", augment_module) == []
    assert _names_imported("from evokernel.graphs import Graph", augment_module) == []
