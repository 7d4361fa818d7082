"""Every argument check of the library raises an ``EvoKernelError`` subclass.

A bad scalar option raises ``ConfigError`` and a bad array or graph raises
``ContractError``; both are also ``ValueError``s.
"""

from __future__ import annotations

import numpy as np
import pytest

from evokernel.augment import (
    BoltzmannConfig,
    HeatDistribution,
    drop_node,
    generate_episode,
    heat_distribution,
    read_episode_jsonl,
)
from evokernel.embedding import MetricConfig, wl_embed_batch
from evokernel.errors import ConfigError, ContractError, EvoKernelError
from evokernel.experiment import stratified_folds
from evokernel.graphs import Graph, normalized_laplacian
from evokernel.heat import (
    HeatState,
    compute_heat_kernel,
    heat_kernel_exact,
    heat_kernel_fiedler,
    heat_kernel_taylor2,
    perturbation_gap,
    propagate_heat,
    spectral_decompose,
)
from evokernel.kernel import clip_psd, evolution_kernel
from evokernel.svm import svm_predict, svm_train

PATH = Graph(3, [(0, 1), (1, 2)])
LAP = normalized_laplacian(PATH)
SPEC = spectral_decompose(LAP)
NAN, INF = float("nan"), float("inf")
KERNEL = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
LABELS = np.array([0, 1, 1])


def _model():
    return svm_train(KERNEL, LABELS, np.arange(3))


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
    "exact-negative-time": (ConfigError, lambda: heat_kernel_exact(SPEC, -1.0)),
    "taylor-negative-time": (ConfigError, lambda: heat_kernel_taylor2(LAP, -1.0)),
    "fiedler-one-node": (
        ContractError,
        lambda: heat_kernel_fiedler(spectral_decompose(np.zeros((1, 1))), 1.0),
    ),
    "fiedler-negative-time": (ConfigError, lambda: heat_kernel_fiedler(SPEC, -1.0)),
    "missing-spectrum": (ContractError, lambda: compute_heat_kernel(LAP, None, 1.0, "exact")),
    "unknown-method": (ConfigError, lambda: compute_heat_kernel(LAP, SPEC, 1.0, "bogus")),
    "u0": (ConfigError, lambda: propagate_heat(heat_kernel_exact(SPEC, 1.0), 0.0)),
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
    "exact-nan-time": (ConfigError, lambda: heat_kernel_exact(SPEC, NAN)),
    "exact-infinite-time": (ConfigError, lambda: heat_kernel_exact(SPEC, INF)),
    "taylor-nan-time": (ConfigError, lambda: heat_kernel_taylor2(LAP, NAN)),
    "fiedler-nan-time": (ConfigError, lambda: heat_kernel_fiedler(SPEC, NAN)),
    "u0-nan": (ConfigError, lambda: propagate_heat(heat_kernel_exact(SPEC, 1.0), NAN)),
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
    "dim-fraction": (ConfigError, lambda: wl_embed_batch([PATH], MetricConfig(dim=1.5))),
    "dim-bool": (ConfigError, lambda: wl_embed_batch([PATH], MetricConfig(dim=True))),
    "iterations-fraction": (
        ConfigError,
        lambda: wl_embed_batch([PATH], MetricConfig(wl_iterations=2.5)),
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
    # The seed is checked before the file is read, so no file is needed.
    "jsonl-fractional-seed": (ConfigError, lambda: read_episode_jsonl("absent.jsonl", PATH, seed=1.5)),
    "svm-nan-tol": (ConfigError, lambda: svm_train(KERNEL, LABELS, np.arange(3), tol=NAN)),
    "svm-negative-update-cap": (
        ConfigError,
        lambda: svm_train(KERNEL, LABELS, np.arange(3), max_updates=-1),
    ),
    "svm-fractional-update-cap": (
        ConfigError,
        lambda: svm_train(KERNEL, LABELS, np.arange(3), max_updates=2.5),
    ),
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
    # A distance matrix must be exactly symmetric.
    "kernel-asymmetric-distances": (
        ContractError,
        lambda: evolution_kernel(np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])),
    ),
}


@pytest.mark.parametrize("site", sorted(CALLS))
def test_library_checks_raise_package_errors(site):
    expected, call = CALLS[site]
    with pytest.raises(EvoKernelError) as info:
        call()
    assert isinstance(info.value, expected)
    assert isinstance(info.value, ValueError)
