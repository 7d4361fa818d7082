"""Every argument check of the library raises an ``EvoKernelError`` subclass.

A bad scalar option or config object raises ``ConfigError`` and a bad array,
graph or other object raises ``ContractError``; both are also ``ValueError``s.
A mask that ``subgraph`` cannot read raises ``GraphConstructionError``, as every
bad graph input does, and a dataset a run cannot read raises ``DatasetError``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from evokernel.augment import (
    BoltzmannConfig,
    HeatDistribution,
    TemporalEpisode,
    drop_node,
    generate_episode,
    heat_distribution,
)
from evokernel.embedding import MAX_WL_ITERATIONS, MetricConfig, delta, wl_embed
from evokernel.errors import (
    ConfigError,
    ContractError,
    DatasetError,
    EvoKernelError,
    GraphConstructionError,
    StageError,
)
from evokernel.experiment import (
    ExperimentConfig,
    run_experiment,
    stratified_folds,
    sweep_time_length,
    write_sweep_csv,
)
from evokernel.gdtw import build_warping_matrix, gdtw_distance
from evokernel.graphs import Graph, normalized_laplacian, subgraph
from evokernel.heat import (
    HEAT_METHODS,
    HeatKernel,
    HeatState,
    SpectralDecomposition,
    compute_heat_kernel,
    perturbation_gap,
    propagate_heat,
    spectral_decompose,
)
from evokernel.kernel import clip_psd, distance_matrix, evolution_kernel
from evokernel.svm import svm_predict, svm_train
from evokernel.tu_io import GraphDataset

PATH = Graph(3, [(0, 1), (1, 2)])
EMPTY = Graph(0, [])
LAP = normalized_laplacian(PATH)
SPEC = spectral_decompose(LAP)
P4_SPEC = spectral_decompose(normalized_laplacian(Graph(4, [(0, 1), (1, 2), (2, 3)])))
NAN, INF = float("nan"), float("inf")
KERNEL = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
LABELS = np.array([0, 1, 1])


def _model():
    return svm_train(KERNEL, LABELS, np.arange(3))


def _at(stage, call):
    """Call ``call``; raise the cause of its ``stage`` error."""
    try:
        call()
    except StageError as exc:
        if exc.stage != stage:
            raise
        raise exc.cause from exc


CALLS = {
    "heat-non-finite": (
        ContractError,
        lambda: heat_distribution(HeatState(0.0, np.array([np.nan])), BoltzmannConfig()),
    ),
    "drop-length": (
        ContractError,
        lambda: drop_node(
            PATH, HeatDistribution(0.0, np.ones(2), np.ones(2)), np.random.default_rng(0)
        ),
    ),
    "exact-negative-time": (ConfigError, lambda: compute_heat_kernel(None, SPEC, -1.0, "exact")),
    "taylor-negative-time": (ConfigError, lambda: compute_heat_kernel(LAP, None, -1.0, "taylor2")),
    "fiedler-negative-time": (ConfigError, lambda: compute_heat_kernel(None, SPEC, -1.0, "fiedler")),
    "missing-spectrum": (ContractError, lambda: compute_heat_kernel(LAP, None, 1.0, "exact")),
    "unknown-method": (ConfigError, lambda: compute_heat_kernel(LAP, SPEC, 1.0, "bogus")),
    "u0": (ConfigError, lambda: propagate_heat(compute_heat_kernel(None, SPEC, 1.0, "exact"), 0.0)),
    # A spectrum is a SpectralDecomposition with one eigenvector per eigenvalue,
    # of the Laplacian it comes with.
    **{
        f"spectrum-other-graph-{m}": (ContractError, lambda m=m: compute_heat_kernel(LAP, P4_SPEC, 0.5, m))
        for m in HEAT_METHODS
    },
    "spectrum-string": (ContractError, lambda: compute_heat_kernel(None, "x", 0.5, "exact")),
    "spectrum-matrix": (ContractError, lambda: compute_heat_kernel(LAP, np.eye(3), 0.5)),
    "spectrum-non-finite": (
        ContractError,
        lambda: compute_heat_kernel(None, SpectralDecomposition(np.array([0.0, NAN, 1.0]), np.eye(3)), 1.0),
    ),
    "spectrum-text": (
        ContractError,
        lambda: compute_heat_kernel(None, SpectralDecomposition(np.array(["0", "1", "1.5"]), np.eye(3)), 1.0),
    ),
    "spectrum-eigenpair-count": (
        ContractError,
        lambda: compute_heat_kernel(None, SpectralDecomposition(np.array([0.0, 1.0]), np.eye(3)), 0.5, "exact"),
    ),
    "perturbation": (ContractError, lambda: perturbation_gap(LAP, np.full((3, 3), np.nan), 1.0)),
    "gamma-scale": (ConfigError, lambda: evolution_kernel(np.zeros((2, 2)), gamma_scale=0)),
    "repair": (ConfigError, lambda: evolution_kernel(np.zeros((2, 2)), repair="bogus")),
    "c": (ConfigError, lambda: svm_train(KERNEL, LABELS, np.arange(3), c=float("nan"))),
    "kernel-non-finite": (
        ContractError,
        lambda: svm_train(np.where(np.eye(3) > 0, np.inf, KERNEL), LABELS, np.arange(3)),
    ),
    "kernel-asymmetric": (
        ContractError,
        lambda: svm_train(KERNEL + np.triu(np.full((3, 3), 0.01), 1), LABELS, np.arange(3)),
    ),
    "row-length": (ContractError, lambda: svm_predict(_model(), np.ones(2))),
    "row-non-finite": (ContractError, lambda: svm_predict(_model(), np.array([1.0, np.nan, 0.0]))),
    # Non-finite scalar options fail their range guards.
    "gamma-scale-nan": (ConfigError, lambda: evolution_kernel(np.zeros((2, 2)), gamma_scale=NAN)),
    "gamma-scale-inf": (ConfigError, lambda: evolution_kernel(np.zeros((2, 2)), gamma_scale=INF)),
    "exact-nan-time": (ConfigError, lambda: compute_heat_kernel(None, SPEC, NAN, "exact")),
    "exact-infinite-time": (ConfigError, lambda: compute_heat_kernel(None, SPEC, INF, "exact")),
    "taylor-nan-time": (ConfigError, lambda: compute_heat_kernel(LAP, None, NAN, "taylor2")),
    "fiedler-nan-time": (ConfigError, lambda: compute_heat_kernel(None, SPEC, NAN, "fiedler")),
    "u0-nan": (ConfigError, lambda: propagate_heat(compute_heat_kernel(None, SPEC, 1.0, "exact"), NAN)),
    "energy-weight-nan": (
        ConfigError,
        lambda: heat_distribution(HeatState(0.0, np.ones(3)), BoltzmannConfig(a=NAN)),
    ),
    "energy-weight-inf": (
        ConfigError,
        lambda: generate_episode(PATH, [0.0, 0.1], BoltzmannConfig(a=-INF)),
    ),
    # Fold counts and seeds.
    "folds-zero": (ConfigError, lambda: stratified_folds([0, 0, 1, 1], 0, 0)),
    "folds-negative": (ConfigError, lambda: stratified_folds([0, 0, 1, 1], -1, 0)),
    "folds-one": (ConfigError, lambda: stratified_folds([0, 0, 1, 1], 1, 0)),
    "folds-negative-seed": (ConfigError, lambda: stratified_folds([0, 0, 1, 1], 2, -1)),
    "episode-negative-seed": (ConfigError, lambda: generate_episode(PATH, [0.0, 0.1], seed=-1)),
    # Embedding sizes must be integers.
    "dim-fraction": (ConfigError, lambda: wl_embed(PATH, MetricConfig(dim=1.5))),
    "dim-bool": (ConfigError, lambda: wl_embed(PATH, MetricConfig(dim=True))),
    "iterations-fraction": (ConfigError, lambda: wl_embed(PATH, MetricConfig(wl_iterations=2.5))),
    "iterations-too-deep": (
        ConfigError,
        lambda: wl_embed(PATH, MetricConfig(wl_iterations=MAX_WL_ITERATIONS + 1)),
    ),
    # Array contracts.
    "train-index-outside": (ContractError, lambda: svm_train(KERNEL, LABELS, [0, 1, 3])),
    "train-index-negative": (ContractError, lambda: svm_train(KERNEL, LABELS, [-1, 0, 1])),
    "perturbation-shape": (ContractError, lambda: perturbation_gap(LAP, np.zeros((2, 2)), 1.0)),
    "perturbation-asymmetric": (
        ContractError,
        lambda: perturbation_gap(LAP, np.triu(np.full((3, 3), 1e-3)), 1.0),
    ),
    "clip-non-square": (ContractError, lambda: clip_psd(np.ones((2, 3)))),
    "clip-non-finite": (ContractError, lambda: clip_psd(np.full((2, 2), NAN))),
    # Integers are never fractions or bools, reals never bools.
    "episode-fractional-seed": (ConfigError, lambda: generate_episode(PATH, [0.0, 0.1], seed=1.7)),
    "episode-fractional-graph-index": (
        ConfigError,
        lambda: generate_episode(PATH, [0.0, 0.1], graph_index=1.5),
    ),
    "episode-bool-u0": (ConfigError, lambda: generate_episode(PATH, [0.0, 0.1], u0=True)),
    "folds-fractional-seed": (ConfigError, lambda: stratified_folds([0, 0, 1, 1], 2, 1.5)),
    "folds-bool-seed": (ConfigError, lambda: stratified_folds([0, 0, 1, 1], 2, True)),
    # Label and id arrays must have an integer dtype.
    "train-fractional-labels": (ContractError, lambda: svm_train(KERNEL, [0.5, 1.2, 1.7], [0, 1, 2])),
    "train-bool-labels": (ContractError, lambda: svm_train(KERNEL, [True, False, True], [0, 1, 2])),
    "train-fractional-ids": (ContractError, lambda: svm_train(KERNEL, LABELS, [0.2, 1.9, 2.5])),
    "folds-fractional-labels": (
        ContractError,
        lambda: stratified_folds([0.2, 0.7, 1.1, 1.9], 2, 0),
    ),
    "folds-2d-labels": (ContractError, lambda: stratified_folds([[0, 0], [1, 1]], 2, 0)),
    "train-2d-labels": (ContractError, lambda: svm_train(KERNEL, [[0], [1], [1]], [0, 1, 2])),
    # Ragged rows are no array, whatever numpy's version.
    "folds-ragged-labels": (ContractError, lambda: stratified_folds([[1.0], [1.0, 2.0]], 2, 1)),
    "train-ragged-labels": (ContractError, lambda: svm_train(KERNEL, [[0], [1, 1], [1]], [0, 1, 2])),
    "train-ragged-ids": (ContractError, lambda: svm_train(KERNEL, LABELS, [[0], [1, 2]])),
    "subgraph-ragged-mask": (GraphConstructionError, lambda: subgraph(PATH, [[True], [True, False]])),
    # Sweep lengths are numbers, never bools.
    "sweep-bool-length": (ConfigError, lambda: _at("config", lambda: sweep_time_length(ExperimentConfig(), [True]))),
    "sweep-numpy-bool-length": (
        ConfigError,
        lambda: _at("config", lambda: sweep_time_length(ExperimentConfig(), [0.5, np.True_])),
    ),
    # generate_episode checks every argument before its first step, so a graph
    # with no node to draw from refuses them too.
    "episode-empty-nan-u0": (ConfigError, lambda: generate_episode(EMPTY, [0.0, 0.1], u0=NAN)),
    "episode-empty-negative-u0": (ConfigError, lambda: generate_episode(EMPTY, [0.0, 0.1], u0=-1.0)),
    "episode-empty-method": (ConfigError, lambda: generate_episode(EMPTY, [0.0, 0.1], method="bogus")),
    "episode-empty-nan-weight": (
        ConfigError,
        lambda: generate_episode(EMPTY, [0.0, 0.1], BoltzmannConfig(a=NAN)),
    ),
    "episode-empty-nan-bias": (
        ConfigError,
        lambda: generate_episode(EMPTY, [0.0, 0.1], BoltzmannConfig(b=NAN)),
    ),
    "episode-string-cfg": (ConfigError, lambda: generate_episode(PATH, [0.0, 0.1], "x")),
    "episode-string-cumulative": (
        ConfigError,
        lambda: generate_episode(EMPTY, [0.0, 0.1], cumulative="yes"),
    ),
    "episode-integer-cumulative": (ConfigError, lambda: generate_episode(EMPTY, [0.0, 0.1], cumulative=2)),
    # A distance matrix must be exactly symmetric.
    "kernel-asymmetric-distances": (
        ContractError,
        lambda: evolution_kernel(np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])),
    ),
    "kernel-negative-distances": (ContractError, lambda: evolution_kernel(np.array([[0.0, -1.0], [-1.0, 0.0]]))),
    # A time grid is a non-empty ascending sequence of finite times from 0.
    "episode-empty-grid": (ConfigError, lambda: generate_episode(PATH, [])),
    "episode-nan-grid": (ConfigError, lambda: generate_episode(PATH, [0.0, NAN])),
    "episode-late-start": (ConfigError, lambda: generate_episode(PATH, [0.1, 0.2])),
    "episode-descending-grid": (ConfigError, lambda: generate_episode(PATH, [0.0, 0.2, 0.1])),
    # Alignment needs episodes of one length, and a non-empty, square,
    # finite and non-negative warping matrix.
    "warping-length-mismatch": (
        ContractError,
        lambda: build_warping_matrix(generate_episode(PATH, [0.0]), generate_episode(PATH, [0.0, 0.1])),
    ),
    "warping-empty": (ContractError, lambda: gdtw_distance(np.zeros((0, 0)))),
    "warping-non-square": (ContractError, lambda: gdtw_distance(np.zeros((2, 3)))),
    "warping-negative": (ContractError, lambda: gdtw_distance(np.array([[0.0, -1.0], [1.0, 0.0]]))),
    "warping-infinite": (ContractError, lambda: gdtw_distance(np.array([[INF, 1.0], [1.0, 0.0]]))),
    "distances-grid-mismatch": (
        ContractError,
        lambda: distance_matrix([generate_episode(PATH, [0.0, 0.1]), generate_episode(PATH, [0.0, 0.2])]),
    ),
    "distances-no-snapshots": (
        ContractError,
        lambda: distance_matrix([TemporalEpisode(PATH, np.array([]), [], 0)]),
    ),
    "train-kernel-shape": (ContractError, lambda: svm_train(np.eye(2), LABELS, np.arange(3))),
    # Sweep lengths are a non-empty ascending sequence.
    "sweep-no-length": (ConfigError, lambda: _at("config", lambda: sweep_time_length(ExperimentConfig(), []))),
    "sweep-scalar-lengths": (ConfigError, lambda: _at("config", lambda: sweep_time_length(ExperimentConfig(), 0.5))),
    "sweep-descending-lengths": (
        ConfigError,
        lambda: _at("config", lambda: sweep_time_length(ExperimentConfig(), [0.2, 0.1])),
    ),
    # Heat and its logits that overflow name u0, t and the method, with no numpy warning.
    "heat-kernel-overflow": (ConfigError, lambda: compute_heat_kernel(LAP, None, 1e300, "taylor2")),
    "heat-propagation-overflow": (
        ConfigError,
        lambda: propagate_heat(compute_heat_kernel(None, SPEC, 1.0, "exact"), 1.7e308),
    ),
    "heat-infinite-kernel": (
        ConfigError,
        lambda: propagate_heat(HeatKernel(1.0, np.full((3, 3), INF), "taylor2"), 1.0),
    ),
    **{
        f"episode-heat-overflow-{m}": (
            ConfigError,
            lambda m=m: generate_episode(PATH, [0.0, 0.1], u0=1e308, method=m),
        )
        for m in HEAT_METHODS
    },
    "episode-taylor-time-overflow": (
        ConfigError,
        lambda: generate_episode(PATH, [0.0, 1e300], method="taylor2", cumulative=True),
    ),
    "config-too-many-steps": (
        ConfigError,
        lambda: ExperimentConfig(time_length=1.0, time_interval=1e-9).validate(),
    ),
    # An array argument holds numbers numpy reads as real floats: no text, no ragged rows,
    # no complex dtype, whose imaginary part a cast would drop.
    "warping-text": (ContractError, lambda: gdtw_distance("x")),
    "warping-complex": (ContractError, lambda: gdtw_distance(np.array([[1j]]))),
    "warping-complex-scalars": (ContractError, lambda: gdtw_distance([[np.complex128(1j)]])),
    "clip-ragged": (ContractError, lambda: clip_psd([[1.0, 0.0], [0.0]])),
    # A Python int beyond float range is not a finite real either.
    "warping-huge-int": (ContractError, lambda: gdtw_distance([[10**400]])),
    "clip-huge-int": (ContractError, lambda: clip_psd([[10**400]])),
    "kernel-huge-int-distances": (ContractError, lambda: evolution_kernel([[0, 10**400], [10**400, 0]])),
    # numpy registers timedelta64 as a real number, but float() refuses it.
    "taylor-timedelta-time": (ConfigError, lambda: compute_heat_kernel(LAP, None, np.timedelta64(1, "D"), "taylor2")),
    "kernel-text-distances": (ContractError, lambda: evolution_kernel("x")),
    "laplacian-text": (ContractError, lambda: spectral_decompose("x")),
    "laplacian-numeric-text": (
        ContractError,
        lambda: spectral_decompose(np.array([["1.0", "-1.0"], ["-1.0", "1.0"]])),
    ),
    "laplacian-complex": (ContractError, lambda: spectral_decompose(LAP + 0j)),
    "train-text-kernel": (ContractError, lambda: svm_train("x", LABELS, np.arange(3))),
    "train-complex-kernel": (ContractError, lambda: svm_train(KERNEL + 0j, LABELS, np.arange(3))),
    "row-text": (ContractError, lambda: svm_predict(_model(), "x")),
    "row-complex": (ContractError, lambda: svm_predict(_model(), np.array([1j, 0.0, 0.0]))),
    "heat-text": (ContractError, lambda: heat_distribution(HeatState(0.0, "x"), BoltzmannConfig())),
    # generate_episode refuses a source that is not a Graph, and a time grid of text or
    # complex numbers, with ConfigError before any draw.
    "episode-no-graph": (ConfigError, lambda: generate_episode(None, [0.0])),
    "episode-text-grid": (ConfigError, lambda: generate_episode(PATH, ["a"])),
    "episode-complex-grid": (ConfigError, lambda: generate_episode(PATH, np.array([0.0, 0.1]) + 0j)),
    # WL counts are of graphs only: a whole graph, or an episode's snapshots.
    "embed-no-graph": (ContractError, lambda: wl_embed("x")),
    "delta-no-graph": (ContractError, lambda: delta(PATH, None)),
    "warping-no-graph-snapshot": (
        ContractError,
        lambda: build_warping_matrix(TemporalEpisode(PATH, np.zeros(1), ["x"], 0), generate_episode(PATH, [0.0])),
    ),
    "distances-no-graph-snapshot": (
        ContractError,
        lambda: distance_matrix([generate_episode(PATH, [0.0]), TemporalEpisode(PATH, np.zeros(1), [None], 0)]),
    ),
    # An object argument is of its class: a config raises ConfigError, any other ContractError.
    "warping-no-first-episode": (ContractError, lambda: build_warping_matrix(None, generate_episode(PATH, [0.0]))),
    "warping-no-second-episode": (
        ContractError,
        lambda: build_warping_matrix(generate_episode(PATH, [0.0]), object()),
    ),
    "warping-string-cfg": (
        ConfigError,
        lambda: build_warping_matrix(generate_episode(PATH, [0.0]), generate_episode(PATH, [0.0]), "x"),
    ),
    "delta-no-cfg": (ConfigError, lambda: delta(PATH, PATH, None)),
    "distances-no-episode": (ContractError, lambda: distance_matrix([object()])),
    "distances-string-cfg": (ConfigError, lambda: distance_matrix([generate_episode(PATH, [0.0])], "x")),
    "drop-no-graph": (
        ContractError,
        lambda: drop_node("x", HeatDistribution(0.0, np.ones(3), np.ones(3)), np.random.default_rng(0)),
    ),
    "drop-no-distribution": (ContractError, lambda: drop_node(PATH, None, np.random.default_rng(0))),
    "drop-no-generator": (
        ContractError,
        lambda: drop_node(PATH, HeatDistribution(0.0, np.ones(3), np.ones(3)), object()),
    ),
    "heat-no-state": (ContractError, lambda: heat_distribution("x", BoltzmannConfig())),
    "heat-no-cfg": (ConfigError, lambda: heat_distribution(HeatState(0.0, np.ones(3)), None)),
    "laplacian-no-graph": (ContractError, lambda: normalized_laplacian(None)),
    "propagate-no-kernel": (ContractError, lambda: propagate_heat(object(), 1.0)),
    "run-no-cfg": (ConfigError, lambda: _at("config", lambda: run_experiment("x"))),
    "subgraph-no-graph": (ContractError, lambda: subgraph(object(), [True])),
    "predict-no-model": (ContractError, lambda: svm_predict(None, np.ones(3))),
    "sweep-no-cfg": (ConfigError, lambda: _at("config", lambda: sweep_time_length(None, [0.5]))),
    "embed-string-cfg": (ConfigError, lambda: wl_embed(PATH, "x")),
    "sweep-csv-no-report": (ContractError, lambda: write_sweep_csv([object()], os.devnull)),
    # A run needs a graph, and a split a label.
    "run-empty-dataset": (
        DatasetError,
        lambda: _at("load", lambda: run_experiment(ExperimentConfig(), GraphDataset([], np.zeros(0, np.int64), "x"))),
    ),
    "folds-no-labels": (ConfigError, lambda: stratified_folds([], 2, 0)),
}


@pytest.mark.parametrize("site", sorted(CALLS))
def test_library_checks_raise_package_errors(site):
    expected, call = CALLS[site]
    with pytest.raises(EvoKernelError) as info:
        call()
    assert isinstance(info.value, expected)
    assert isinstance(info.value, ValueError) == (expected not in (GraphConstructionError, DatasetError))
