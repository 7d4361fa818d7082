"""Every argument check of the library raises an ``EvoKernelError`` subclass.

A bad scalar option raises ``ConfigError`` and a bad array or graph raises
``ContractError``; both are also ``ValueError``s.
"""

from __future__ import annotations

import numpy as np
import pytest

from evokernel.augment import BoltzmannConfig, HeatDistribution, drop_node, heat_distribution
from evokernel.errors import ConfigError, ContractError, EvoKernelError
from evokernel.graphs import build_graph, normalized_laplacian
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
from evokernel.kernel import evolution_kernel
from evokernel.svm import svm_predict, svm_train

PATH = build_graph(3, [(0, 1), (1, 2)])
LAP = normalized_laplacian(PATH)
SPEC = spectral_decompose(LAP)
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
}


@pytest.mark.parametrize("site", sorted(CALLS))
def test_library_checks_raise_package_errors(site):
    expected, call = CALLS[site]
    with pytest.raises(EvoKernelError) as info:
        call()
    assert isinstance(info.value, expected)
    assert isinstance(info.value, ValueError)
