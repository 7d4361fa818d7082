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

from .errors import ContractError, TrainingError, integer, integers, real, square
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

    def decision(self, k_row: np.ndarray) -> float:
        return float((self.alpha * self.y) @ k_row + self.bias)


@dataclass
class SvmModel:
    """Machines of one training set: one for two classes, else one per class.

    ``decision_values`` has one entry per machine; a two-class model's single
    value is positive (or zero) for ``classes[0]``.
    """

    classes: np.ndarray
    machines: list[BinarySvm]
    c: float
    train_size: int

    def decision_values(self, k_row: np.ndarray) -> np.ndarray:
        return np.array([m.decision(k_row) for m in self.machines])


def _smo(k: np.ndarray, y: np.ndarray, c: float, tol: float, max_updates: int) -> BinarySvm:
    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a'Qa - 1'a at a = 0
    columns = np.ascontiguousarray(k.T)  # row i is column i of k
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
        if updates >= max_updates:
            break
        violation = yg_up[i] - yg_low[j]
        if violation <= tol:
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
        grad += step * y * (columns[i] - columns[j])
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
    tol: float = KKT_TOL,
    max_updates: int = MAX_UPDATES,
) -> SvmModel:
    """Train one binary SMO problem per class, or a single one for two classes.

    The kernel is n x n for n integer labels and is restricted to train_idx x
    train_idx (integer ids in [0, n)), which must be finite and exactly symmetric.
    Convergence is max KKT violation <= tol (>= 0) or ``max_updates`` updates
    (an integer >= 0), with the cap recorded on the machine.
    """
    c = real("regularization c", c, 0, above=True)
    tol = real("tolerance", tol, 0)
    max_updates = integer("update cap", max_updates)
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
        machine = _smo(k_train, y, c, tol, max_updates)
        machine.positive_class = int(cls)
        machines.append(machine)
    return SvmModel(classes=classes, machines=machines, c=c, train_size=len(train_idx))


def svm_predict(model: SvmModel, k_row: np.ndarray) -> int:
    """Argmax of the one-vs-rest decision values; ties go to the lowest class id.

    A two-class model predicts ``classes[0]`` unless its decision value is
    negative, which is the argmax of the mirrored pair ``[f, -f]``.
    """
    k_row = np.asarray(k_row, dtype=float)
    if k_row.shape != (model.train_size,):
        raise ContractError(
            f"kernel row has length {k_row.size}, expected {model.train_size}"
        )
    if not np.isfinite(k_row).all():
        raise ContractError("kernel row has non-finite entries")
    values = model.decision_values(k_row)
    if len(values) == 1:
        return int(model.classes[1] if values[0] < 0 else model.classes[0])
    return int(model.classes[int(np.argmax(values))])
