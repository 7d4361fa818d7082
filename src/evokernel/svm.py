"""One-vs-rest SVM on a precomputed kernel, trained by SMO.

The solver is the max-violating-pair variant of sequential minimal
optimization: at each update the most violating pair under the KKT conditions
is selected deterministically (first index on ties), so training is exactly
reproducible. Indefinite kernels are tolerated by flooring the pair curvature.

A two-class problem trains one machine, for the lower class: on a symmetric
kernel the other one-vs-rest machine is its exact mirror image (same alphas,
negated decision values), so it would add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, TrainingError, integers, real, square
from .kernel import EvolutionKernelMatrix

KKT_TOL = 1e-3
MAX_UPDATES = 100_000
_BOX_EPS = 1e-12
_SUPPORT_TOL = 1e-10


@dataclass
class BinarySvm:
    """Dual solution of one one-vs-rest problem over the training indices."""

    positive_class: int
    y: np.ndarray
    alpha: np.ndarray
    bias: float
    support: np.ndarray
    kkt_residual: float
    updates: int
    cap_hit: bool


@dataclass
class SvmModel:
    """Machines of one training set: one for two classes, else one per class."""

    classes: np.ndarray
    machines: list[BinarySvm]
    c: float
    train_size: int


def _smo(k: np.ndarray, y: np.ndarray, c: float) -> BinarySvm:
    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a'Qa - 1'a at a = 0
    positive = y > 0
    updates = 0
    converged = False

    while True:
        yg = -(y * grad)
        below = alpha < c - _BOX_EPS
        above = alpha > _BOX_EPS
        up = np.where(positive, below, above)
        low = np.where(positive, above, below)
        # Entries outside a set are masked with -inf/+inf, so argmax/argmin
        # pick its first extreme index and, while the gradient is finite, an
        # empty set reads as no violation.
        yg_up = np.where(up, yg, -np.inf)
        yg_low = np.where(low, yg, np.inf)
        i = int(np.argmax(yg_up))
        j = int(np.argmin(yg_low))
        if updates >= MAX_UPDATES:
            break
        violation = yg_up[i] - yg_low[j]
        if violation <= KKT_TOL:
            converged = True
            break

        curvature = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if curvature <= 0:
            curvature = 1e-12
        step = violation / curvature
        step = min(step, c - alpha[i] if y[i] > 0 else alpha[i])
        step = min(step, alpha[j] if y[j] > 0 else c - alpha[j])

        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * y * (k[:, i] - k[:, j])
        updates += 1

    if up.any() and low.any():
        m_up = float(yg_up[i])
        m_low = float(yg_low[j])
        bias = (m_up + m_low) / 2.0
        residual = max(m_up - m_low, 0.0)
    else:
        # Everything sits on a box bound; center the bias on the KKT targets.
        bias = float(np.mean(yg))
        residual = 0.0

    return BinarySvm(
        positive_class=-1,  # filled by svm_train
        y=y,
        alpha=alpha,
        bias=bias,
        support=np.flatnonzero(alpha > _SUPPORT_TOL),
        kkt_residual=residual,
        updates=updates,
        cap_hit=not converged,
    )


def svm_train(
    kernel: EvolutionKernelMatrix | np.ndarray,
    labels,
    train_idx,
    c: float = 10.0,
) -> SvmModel:
    """Train one binary SMO problem per class, or a single one for two classes.

    The kernel is n x n for n integer labels and is restricted to train_idx x
    train_idx (integer ids in [0, n)), which must be finite and exactly symmetric.
    Convergence is max KKT violation <= ``KKT_TOL`` or ``MAX_UPDATES``
    updates, with the cap recorded on the machine.
    """
    c = real("regularization c", c, 0, above=True)
    k = kernel.k if isinstance(kernel, EvolutionKernelMatrix) else np.asarray(kernel, dtype=float)
    labels = integers("labels", labels)
    train_idx = integers("training indices", train_idx)
    n = len(labels)
    if k.shape != (n, n):
        raise ContractError(f"kernel of shape {k.shape} for {n} labels")
    if train_idx.size == 0:
        raise TrainingError("empty training set")
    if train_idx.min() < 0 or train_idx.max() >= n:
        raise ContractError(f"training indices must be ids in [0, {n})")
    train_labels = labels[train_idx]
    classes = np.unique(train_labels)
    if len(classes) < 2:
        raise TrainingError(f"training set contains a single class ({classes.tolist()})")

    k_train = square("training kernel", k[np.ix_(train_idx, train_idx)], symmetric=True)
    machines = []
    for cls in classes[:1] if len(classes) == 2 else classes:
        y = np.where(train_labels == cls, 1.0, -1.0)
        machine = _smo(k_train, y, c)
        machine.positive_class = int(cls)
        machines.append(machine)
    return SvmModel(classes=classes, machines=machines, c=c, train_size=len(train_idx))


def svm_predict(model: SvmModel, k_rows: np.ndarray) -> int | np.ndarray:
    """Class of one kernel row, or int64 classes of each row of an (m, train_size) block.

    The decision values are ``k_rows @ coef + bias``, one column of ``alpha * y``
    per machine, and the class is their argmax; ties go to the lowest class id.
    A two-class model predicts ``classes[0]`` unless its decision value is
    negative, which is the argmax of the mirrored pair ``[f, -f]``.
    """
    k_rows = np.asarray(k_rows, dtype=float)
    if k_rows.ndim not in (1, 2) or k_rows.shape[-1] != model.train_size:
        raise ContractError(
            f"kernel rows of shape {k_rows.shape}, expected rows of length {model.train_size}"
        )
    if not np.isfinite(k_rows).all():
        raise ContractError("kernel rows have non-finite entries")
    coef = np.stack([m.alpha * m.y for m in model.machines], axis=1)
    values = k_rows @ coef + np.array([m.bias for m in model.machines])
    best = values[..., 0] < 0 if len(model.machines) == 1 else np.argmax(values, axis=-1)
    predicted = np.asarray(model.classes, dtype=np.int64)[best.astype(np.int64)]
    return int(predicted) if k_rows.ndim == 1 else predicted
