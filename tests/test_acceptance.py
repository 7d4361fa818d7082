"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and enforces
its runtime budget. Criteria 5 and 8-9 need the MUTAG files vendored under
tests/data/MUTAG.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from evokernel.augment import BoltzmannConfig, HeatDistribution, drop_node, generate_episode, heat_distribution
from evokernel.cli import main as cli_main
from evokernel.experiment import ExperimentConfig, run_experiment
from evokernel.gdtw import gdtw_distance
from evokernel.graphs import Graph, normalized_laplacian
from evokernel.heat import (
    METHOD_FIEDLER,
    METHOD_TAYLOR2,
    HeatState,
    compute_heat_kernel,
    perturbation_gap,
    spectral_decompose,
)
from evokernel.tu_io import GraphDataset

from .conftest import star, triangle
from .oracles import brute_force_gdtw, expm_oracle, path_is_admissible, random_connected_graph, random_graph


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"CRITERION {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"CRITERION {number} ({name}): FAIL (runtime {elapsed:.1f}s over budget {budget_seconds:.0f}s)")
        raise AssertionError(f"runtime {elapsed:.1f}s exceeds budget {budget_seconds:.0f}s")
    budget = f", budget {budget_seconds:.0f}s" if budget_seconds is not None else ""
    print(f"CRITERION {number} ({name}): PASS ({elapsed:.1f}s{budget})")


def test_criterion_1_heat_kernel_correctness():
    with criterion(1, "heat-kernel correctness", 30.0):
        rng = np.random.default_rng(2024)
        times = (0.1, 1.0, 5.0)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 41)), 0.2)
            lap = normalized_laplacian(g)
            spec = spectral_decompose(lap)
            kernels = {t: compute_heat_kernel(lap, spec, t).matrix for t in times}
            for t, h in kernels.items():
                assert np.linalg.norm(h - expm_oracle(-t * lap)) <= 1e-8
                assert h.min() >= -1e-10
            for s in times:
                for t in times:
                    lhs = kernels[s] @ kernels[t]
                    rhs = compute_heat_kernel(lap, spec, s + t).matrix
                    assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_criterion_2_approximation_regimes():
    with criterion(2, "approximation regimes", 10.0):
        rng = np.random.default_rng(77)
        taylor_times = np.array([0.2, 0.1, 0.05, 0.025])
        for _ in range(5):
            g = random_graph(rng, int(rng.integers(6, 25)), 0.3)
            lap = normalized_laplacian(g)
            spec = spectral_decompose(lap)
            errs = [
                np.linalg.norm(
                    compute_heat_kernel(lap, spec, t, METHOD_TAYLOR2).matrix - compute_heat_kernel(lap, spec, t).matrix
                )
                for t in taylor_times
            ]
            order = np.polyfit(np.log(taylor_times), np.log(errs), 1)[0]
            assert 2.5 <= order <= 3.5

        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(6, 20)), 0.35)
            spec = spectral_decompose(normalized_laplacian(g))
            phi0 = spec.eigenvectors[:, 0]
            offset = np.eye(g.node_count) - np.outer(phi0, phi0)
            gaps = [
                np.linalg.norm(
                    compute_heat_kernel(None, spec, t, METHOD_FIEDLER).matrix
                    - compute_heat_kernel(None, spec, t).matrix
                    - offset
                )
                for t in (5.0, 10.0, 20.0, 40.0)
            ]
            assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))


def test_criterion_3_stability():
    with criterion(3, "perturbation stability", 5.0):
        rng = np.random.default_rng(31337)
        g = random_connected_graph(rng, 12, 0.3)
        lap = normalized_laplacian(g)
        raw = rng.standard_normal((12, 12))
        direction = (raw + raw.T) / 2.0
        direction /= np.linalg.norm(direction)
        gaps = {eps: perturbation_gap(lap, eps * direction, 1.0) for eps in (1e-2, 1e-3, 1e-4)}
        assert gaps[1e-2] > gaps[1e-3] > gaps[1e-4]
        ratio = gaps[1e-3] / gaps[1e-4]
        assert 5.0 <= ratio <= 20.0


def test_criterion_4_gdtw_oracle_equivalence():
    with criterion(4, "warping-distance oracle equivalence", 10.0):
        rng = np.random.default_rng(4242)
        for n in (5, 6):
            for _ in range(100):
                m = rng.random((n, n))
                result = gdtw_distance(m)
                assert result.distance == brute_force_gdtw(m)
                assert path_is_admissible(result.path, n)


def test_criterion_5_augmentation_statistics(mutag):
    with criterion(5, "augmentation statistics", 60.0):
        # Bernoulli keep frequencies against the rescaled probabilities
        probs = np.array([1.0, 0.75, 0.5, 0.25, 0.1, 1.0])
        g = Graph(6, [(i, i + 1) for i in range(5)])
        dist = HeatDistribution(t=1.0, probs=probs / probs.sum(), normed=probs)
        rng = np.random.default_rng(90210)
        draws = 10_000
        kept = np.zeros(6)
        for _ in range(draws):
            kept += drop_node(g, dist, rng)[1]
        freq = kept / draws
        assert np.max(np.abs(freq - probs)) <= 0.01
        assert freq[0] == 1.0 and freq[5] == 1.0  # rescaled probability exactly 1

        # the hottest node survives every heat-driven draw
        hub = star(9)
        state_dist = heat_distribution(
            HeatState(t=2.0, heat=np.linspace(0.2, 1.8, 10)), BoltzmannConfig()
        )
        hottest = int(np.argmax(state_dist.normed))
        assert state_dist.normed[hottest] == 1.0
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            _, keep = drop_node(hub, state_dist, rng)
            assert keep[hottest]

        # the t=0 snapshot equals the source graph on every dataset graph
        grid = np.array([0.0, 0.1])
        for index, source in enumerate(mutag.graphs):
            episode = generate_episode(source, grid, seed=5, graph_index=index)
            assert episode.snapshots[0] == source
            assert episode.kept_masks[0].all()

        # bit-exact reproducibility of full episodes under one seed
        grid = np.arange(6) * 0.2
        for index in (0, 17, 93):
            source = mutag.graphs[index]
            first = generate_episode(source, grid, seed=1234, graph_index=index)
            second = generate_episode(source, grid, seed=1234, graph_index=index)
            assert first.snapshots == second.snapshots
            assert all(np.array_equal(a, b) for a, b in zip(first.kept_masks, second.kept_masks))


def test_criterion_6_boltzmann_identities():
    with criterion(6, "Boltzmann identities"):
        rng = np.random.default_rng(606)
        for _ in range(25):
            heat = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 15)))
            state = HeatState(t=1.0, heat=heat)
            base = heat_distribution(state, BoltzmannConfig(a=-2.0, b=-2.0))
            assert abs(base.probs.sum() - 1.0) <= 1e-12
            for b in (-7.5, 0.0, 3.25):
                other = heat_distribution(state, BoltzmannConfig(a=-2.0, b=b))
                assert np.array_equal(base.probs, other.probs)
                assert np.array_equal(base.normed, other.normed)
            uniform = heat_distribution(state, BoltzmannConfig(a=0.0, b=-2.0))
            assert np.array_equal(uniform.probs, np.full(len(heat), uniform.probs[0]))
            assert np.array_equal(uniform.normed, np.ones(len(heat)))


def test_criterion_7_synthetic_separation():
    with criterion(7, "synthetic end-to-end separation", 30.0):
        graphs = [triangle(), triangle(), triangle(), star(3), star(3), star(3)]
        dataset = GraphDataset(graphs=graphs, labels=np.array([0, 0, 0, 1, 1, 1]), name="TRI-VS-STAR")
        # 6 graphs cap the fold count at 3 (per-class size); all other knobs at defaults
        for seed in range(1, 11):
            cfg = ExperimentConfig(dataset_name="TRI-VS-STAR", folds=3, seed=seed)
            report = run_experiment(cfg, dataset=dataset)
            assert report.mean_accuracy == 1.0


def test_criterion_8_mutag_accuracy(mutag_dir):
    with criterion(8, "MUTAG desk-scale accuracy", 600.0):
        cfg = ExperimentConfig(dataset_dir=str(mutag_dir), dataset_name="MUTAG", seed=42)
        assert cfg.time_length == 1.0 and cfg.time_interval == 0.1  # grid 0..1 step 0.1
        report = run_experiment(cfg)
        assert len(report.fold_accuracies) == 10
        assert report.mean_accuracy >= 0.80


def test_criterion_9_sweep_artifact(mutag_dir, tmp_path, capsys):
    with criterion(9, "sweep artifact determinism", 3600.0):
        lengths = ",".join(f"{k / 10:.1f}" for k in range(1, 11))
        first = tmp_path / "curve_a.csv"
        second = tmp_path / "curve_b.csv"
        argv = ["sweep", "--dataset", str(mutag_dir), "--name", "MUTAG",
                "--seed", "42", "--lengths", lengths]
        assert cli_main(argv + ["--out", str(first)]) == 0
        rows = first.read_text().strip().split("\n")
        assert rows[0] == "time_length,mean_accuracy,std_accuracy"
        assert len(rows) == 11
        for row in rows[1:]:
            t, mean, std = (float(x) for x in row.split(","))
            assert 0.1 <= t <= 1.0
            assert 0.0 <= mean <= 1.0
            assert 0.0 <= std <= 0.5
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()  # drop the verbose per-run CLI output
