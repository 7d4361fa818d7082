from __future__ import annotations

import numpy as np
import pytest

from evokernel.errors import NumericalError
from evokernel.graphs import Graph, normalized_laplacian
from evokernel.heat import (
    METHOD_EXACT,
    METHOD_FIEDLER,
    METHOD_TAYLOR2,
    _heat_vectors,
    compute_heat_kernel,
    heat_kernel_exact,
    heat_kernel_fiedler,
    heat_kernel_taylor2,
    perturbation_gap,
    propagate_heat,
    reads_spectrum,
    select_heat_method,
    spectral_decompose,
)

from .oracles import expm_oracle, random_connected_graph, random_graph


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


def test_exact_kernel_at_time_zero(c4):
    hk = heat_kernel_exact(_spec(c4), 0.0)
    assert np.allclose(hk.matrix, np.eye(4), atol=1e-12)
    assert hk.method == METHOD_EXACT


def test_exact_kernel_single_edge_closed_form(k2):
    hk = heat_kernel_exact(_spec(k2), 1.0)
    on = (1.0 + np.exp(-2.0)) / 2.0
    off = (1.0 - np.exp(-2.0)) / 2.0
    assert np.allclose(hk.matrix, [[on, off], [off, on]], atol=1e-12)


def test_exact_kernel_matches_expm_oracle():
    rng = np.random.default_rng(42)
    g = random_graph(rng, 30, 0.2)
    lap = normalized_laplacian(g)
    ours = heat_kernel_exact(spectral_decompose(lap), 0.7).matrix
    reference = expm_oracle(-0.7 * lap)
    assert np.linalg.norm(ours - reference) <= 1e-8


def test_exact_kernel_rejects_negative_time(k2):
    with pytest.raises(ValueError):
        heat_kernel_exact(_spec(k2), -0.5)


def test_taylor_kernel_at_time_zero(p3):
    hk = heat_kernel_taylor2(normalized_laplacian(p3), 0.0)
    assert np.array_equal(hk.matrix, np.eye(3))
    assert hk.method == METHOD_TAYLOR2


def test_taylor_kernel_formula_and_remainder_bound(k2):
    lap = normalized_laplacian(k2)
    t = 0.1
    hk = heat_kernel_taylor2(lap, t)
    expected = np.eye(2) - t * lap + 0.5 * (t * lap) @ (t * lap)
    assert np.array_equal(hk.matrix, expected)
    exact = heat_kernel_exact(_spec(k2), t).matrix
    assert np.max(np.abs(hk.matrix - exact)) <= (2 * t) ** 3 / 6.0


def test_taylor_error_shrinks_cubically_on_halving():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 12, 0.3)
    lap = normalized_laplacian(g)
    spec = spectral_decompose(lap)

    def max_err(t):
        return np.max(np.abs(heat_kernel_taylor2(lap, t).matrix - heat_kernel_exact(spec, t).matrix))

    ratio = max_err(0.1) / max_err(0.05)
    assert 6.0 <= ratio <= 10.0


def test_taylor_convergence_order_estimate():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 15, 0.3)
    lap = normalized_laplacian(g)
    spec = spectral_decompose(lap)
    ts = np.array([0.2, 0.1, 0.05, 0.025])
    errs = [
        np.linalg.norm(heat_kernel_taylor2(lap, t).matrix - heat_kernel_exact(spec, t).matrix)
        for t in ts
    ]
    order = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert 2.5 <= order <= 3.5


def test_fiedler_kernel_single_edge_closed_form(k2):
    hk = heat_kernel_fiedler(_spec(k2), 5.0)
    outer = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(hk.matrix, np.eye(2) - np.exp(-10.0) * outer, atol=1e-12)
    assert hk.method == METHOD_FIEDLER


def test_fiedler_kernel_tends_to_identity():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 12, 0.3)
    hk = heat_kernel_fiedler(_spec(g), 5000.0)
    assert np.allclose(hk.matrix, np.eye(12), atol=1e-10)


def test_fiedler_kernel_time_zero_is_identity(k2):
    assert np.array_equal(heat_kernel_fiedler(_spec(k2), 0.0).matrix, np.eye(2))


def test_fiedler_kernel_needs_two_nodes():
    with pytest.raises(ValueError):
        heat_kernel_fiedler(spectral_decompose(np.zeros((1, 1))), 1.0)


@pytest.mark.parametrize("n", [0, 1])
def test_fiedler_request_below_two_nodes_falls_back_to_exact(n):
    g = Graph(n, [])
    lap = normalized_laplacian(g)
    hk = compute_heat_kernel(lap, spectral_decompose(lap), 2.0, METHOD_FIEDLER)
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
        np.linalg.norm(heat_kernel_fiedler(spec, t).matrix - heat_kernel_exact(spec, t).matrix - offset)
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


def test_auto_never_picks_fiedler_on_disconnected():
    g = Graph(4, [(0, 1)])  # lambda_1 = 0 (two zero rows plus one component)
    spec = _spec(g)
    assert select_heat_method(spec, 1e6) == METHOD_EXACT


def test_propagate_time_zero_is_initial_heat(c4):
    hk = heat_kernel_exact(_spec(c4), 0.0)
    state = propagate_heat(hk, 1.0)
    assert np.allclose(state.heat, np.ones(4), atol=1e-12)


def test_propagate_single_edge_conserves_uniform_heat(k2):
    state = propagate_heat(heat_kernel_exact(_spec(k2), 1.0), 1.0)
    assert np.allclose(state.heat, [1.0, 1.0], atol=1e-12)


def test_propagate_star_center_absorbs_most(star4):
    state = propagate_heat(heat_kernel_exact(_spec(star4), 1.0), 1.0)
    center, leaves = state.heat[0], state.heat[1:]
    assert np.all(center > leaves)
    # cross-check the heat vector against the expm oracle
    reference = expm_oracle(-1.0 * normalized_laplacian(star4)) @ np.ones(4)
    assert np.allclose(state.heat, reference, atol=1e-10)


def test_propagate_rejects_non_positive_heat(k2):
    with pytest.raises(ValueError):
        propagate_heat(heat_kernel_exact(_spec(k2), 1.0), 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_semigroup_property(seed):
    rng = np.random.default_rng(200 + seed)
    g = random_graph(rng, int(rng.integers(2, 51)), 0.2)
    spec = _spec(g)
    for s in (0.1, 0.5, 1.0):
        for t in (0.1, 0.5, 1.0):
            lhs = heat_kernel_exact(spec, s).matrix @ heat_kernel_exact(spec, t).matrix
            rhs = heat_kernel_exact(spec, s + t).matrix
            assert np.linalg.norm(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_exact_kernel_symmetry_nonnegativity_trace(seed):
    rng = np.random.default_rng(300 + seed)
    g = random_graph(rng, int(rng.integers(2, 40)), 0.25)
    spec = _spec(g)
    for t in (0.1, 1.0, 5.0):
        h = heat_kernel_exact(spec, t).matrix
        assert np.max(np.abs(h - h.T)) <= 1e-10
        assert h.min() >= -1e-10
        assert abs(np.trace(h) - np.exp(-t * spec.eigenvalues).sum()) <= 1e-8
        heat = propagate_heat(heat_kernel_exact(spec, t), 1.0).heat
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
    """Each column is the propagated kernel heat, including fiedler at t = 0
    and on one node (the exact kernel) and auto below and above 0.1."""
    rng = np.random.default_rng(n)
    g = random_connected_graph(rng, n, 0.3) if connected else random_graph(rng, n, 0.3)
    lap = normalized_laplacian(g)
    spec = spectral_decompose(lap)
    times = VECTOR_TIMES if method != METHOD_TAYLOR2 else VECTOR_TIMES[:-1]
    heat = _heat_vectors(lap, spec, times, method, 1.5)
    assert heat.shape == (n, len(times))
    for k, t in enumerate(times):
        kernel_heat = propagate_heat(compute_heat_kernel(lap, spec, t, method), 1.5).heat
        assert np.max(np.abs(heat[:, k] - kernel_heat)) <= 1e-12
    if method == "auto":
        picked = [select_heat_method(spec, t) for t in times]
        assert picked[:3] == [METHOD_TAYLOR2] * 3 and METHOD_EXACT in picked
        assert (METHOD_FIEDLER in picked) == (n in (2, 17))
        small = [t for t in times if not reads_spectrum(method, t)]
        assert np.array_equal(_heat_vectors(lap, None, small, method, 1.5), heat[:, : len(small)])
