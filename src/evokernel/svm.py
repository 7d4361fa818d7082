"""One-vs-rest SVM on a precomputed kernel, trained by SMO.

The solver is the max-violating-pair variant of sequential minimal
optimization: at each update the most violating pair under the KKT conditions
is selected deterministically (first index on ties), so training is exactly
reproducible. Indefinite kernels are tolerated by flooring the pair curvature.

All machines of a run, over every kernel of a time-length sweep, every fold
and every class, train in one lockstep solve: each numpy operation of an
update acts on every live machine, which picks its pair, gathers the pair's
two rows of its own kernel and moves both duals, and leaves the batch once it
converges or reaches the update cap. A machine does the arithmetic of a
one-machine loop, so it is bit-equal to one trained alone.

A two-class problem trains one machine, for the lower class: on a symmetric
kernel the other one-vs-rest machine is its exact mirror image (same alphas,
negated decision values), so it would add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, TrainingError, instance, integers, real, reals, square
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


def _smo(
    kernel: np.ndarray, base: np.ndarray, rows: np.ndarray, y: np.ndarray, valid: np.ndarray, c: float
) -> list[BinarySvm]:
    """Machines of P problems solved in lockstep from (P, width) rows, +-1 y and valid.

    ``kernel`` stacks (n, n) kernels as (L * n, n) rows, and problem p trains
    on ``kernel[base[p] + rows[p]][:, rows[p]]`` restricted to its valid
    entries; padding never enters the up or low set.
    """
    machines: list[BinarySvm] = [None] * len(rows)
    live = np.arange(len(rows))
    at = live * rows.shape[1]
    alpha = np.zeros(rows.shape)
    grad = -np.ones(rows.shape)  # gradient of 1/2 a'Qa - 1'a at a = 0
    # Up is y * alpha < up_bound and low is y * alpha > low_bound. For y = 1
    # these read alpha < c - eps and alpha > eps; for y = -1 they read
    # -alpha < -eps and -alpha > -(c - eps), the same box tests negated.
    # Padding passes neither.
    up_bound = np.where(valid, np.where(y > 0, c - _BOX_EPS, -_BOX_EPS), -np.inf)
    low_bound = np.where(valid, np.where(y > 0, _BOX_EPS, -(c - _BOX_EPS)), np.inf)
    updates = 0

    while live.size:
        yg = -(y * grad)
        ya = y * alpha
        up = ya < up_bound
        low = ya > low_bound
        # Entries outside a set are masked with -inf/+inf, so argmax/argmin
        # pick its first extreme index and, while the gradient is finite, an
        # empty set reads as no violation.
        yg_up = np.where(up, yg, -np.inf)
        yg_low = np.where(low, yg, np.inf)
        # Flat indices into the (live, width) arrays of each machine's pair.
        i = at + np.argmax(yg_up, axis=1)
        j = at + np.argmin(yg_low, axis=1)
        m_up, m_low = yg_up.ravel()[i], yg_low.ravel()[j]
        violation = m_up - m_low
        capped = updates >= MAX_UPDATES
        done = np.full(live.size, capped) if capped else violation <= KKT_TOL
        if done.any():
            for r in np.flatnonzero(done):
                v = valid[r]
                if up[r].any() and low[r].any():
                    bias = (float(m_up[r]) + float(m_low[r])) / 2.0
                    residual = max(float(m_up[r]) - float(m_low[r]), 0.0)
                else:
                    # Everything sits on a box bound; center the bias on the KKT targets.
                    bias, residual = float(np.mean(yg[r, v])), 0.0
                support = np.flatnonzero(alpha[r, v] > _SUPPORT_TOL)
                # The positive class is filled in by _train_folds.
                machines[live[r]] = BinarySvm(-1, y[r, v], alpha[r, v], bias, support, residual, updates, capped)
            keep = ~done
            live, base, rows, y, valid = live[keep], base[keep], rows[keep], y[keep], valid[keep]
            up_bound, low_bound, alpha, grad = up_bound[keep], low_bound[keep], alpha[keep], grad[keep]
            at = at[: live.size]
            continue  # select again on the compacted arrays; nothing moved

        # Row i of the problem's kernel block is its own kernel's row of its i-th entry.
        k_i = kernel[(base + rows.ravel()[i])[:, None], rows]
        k_j = kernel[(base + rows.ravel()[j])[:, None], rows]
        curvature = k_i.ravel()[i] + k_j.ravel()[j] - 2.0 * k_j.ravel()[i]
        step = violation / np.where(curvature <= 0, 1e-12, curvature)
        y_i, y_j, a_i, a_j = y.ravel()[i], y.ravel()[j], alpha.ravel()[i], alpha.ravel()[j]
        limit = np.where(y_i > 0, c - a_i, a_i)
        step = np.where(limit < step, limit, step)
        limit = np.where(y_j > 0, a_j, c - a_j)
        step = np.where(limit < step, limit, step)

        alpha.ravel()[i] += y_i * step
        alpha.ravel()[j] -= y_j * step
        grad += step[:, None] * y * (k_i - k_j)
        updates += 1
    return machines


def _train_folds(kernels: np.ndarray, labels, train_sets, c: float) -> list[list[SvmModel]]:
    """Models of every (kernel, training set) pair of an (L, n, n) stack, ``[kernel][set]``.

    Every machine of every pair trains in one ``_smo`` solve.
    """
    c = real("regularization c", c, 0, above=True)
    labels = integers("labels", labels)
    n = len(labels)
    if kernels.shape[1:] != (n, n):
        raise ContractError(f"kernel of shape {kernels.shape[1:]} for {n} labels")
    sets = []
    for train_idx in train_sets:
        train_idx = integers("training indices", train_idx)
        if train_idx.size == 0:
            raise TrainingError("empty training set")
        if train_idx.min() < 0 or train_idx.max() >= n:
            raise ContractError(f"training indices must be ids in [0, {n})")
        classes = np.unique(labels[train_idx])
        if len(classes) < 2:
            raise TrainingError(f"training set contains a single class ({classes.tolist()})")
        sets.append((train_idx, classes, classes[:1] if len(classes) == 2 else classes))
    for kernel in kernels:
        for train_idx, _, _ in sets:
            square("training kernel", kernel[np.ix_(train_idx, train_idx)], symmetric=True)
    # Problems run kernel by kernel, set by set and class by class; ``at`` is
    # the first row of the problem's kernel in the (L * n, n) stack.
    problems = [
        (at, train_idx, cls)
        for at in range(0, len(kernels) * n, n)
        for train_idx, _, positives in sets
        for cls in positives
    ]

    shape = (len(problems), max(len(train_idx) for train_idx, _, _ in sets))
    base = np.array([at for at, _, _ in problems], dtype=np.int64)
    rows, y, valid = np.zeros(shape, dtype=np.int64), np.ones(shape), np.zeros(shape, dtype=bool)
    for p, (_, train_idx, cls) in enumerate(problems):
        rows[p, : len(train_idx)] = train_idx
        y[p, : len(train_idx)] = np.where(labels[train_idx] == cls, 1.0, -1.0)
        valid[p, : len(train_idx)] = True
    machines = _smo(kernels.reshape(-1, n), base, rows, y, valid, c)
    for machine, (_, _, cls) in zip(machines, problems):
        machine.positive_class = int(cls)
    machines = iter(machines)
    return [
        [
            SvmModel(classes, [next(machines) for _ in positives], c, len(train_idx))
            for train_idx, classes, positives in sets
        ]
        for _ in kernels
    ]


def svm_train(
    kernel: EvolutionKernelMatrix | np.ndarray,
    labels,
    train_idx,
    c: float = 10.0,
) -> SvmModel:
    """Train one binary SMO problem per class, or a single one for two classes.

    The kernel is n x n finite reals for n integer labels and is restricted to
    train_idx x train_idx (integer ids in [0, n)), which must be exactly symmetric.
    Convergence is max KKT violation <= ``KKT_TOL`` or ``MAX_UPDATES``
    updates, with the cap recorded on the machine.
    """
    k = reals("kernel", kernel.k if isinstance(kernel, EvolutionKernelMatrix) else kernel)
    return _train_folds(k[None], labels, [train_idx], c)[0][0]


def svm_predict(model: SvmModel, k_rows: np.ndarray) -> int | np.ndarray:
    """Class of one kernel row, or int64 classes of each row of an (m, train_size) block.

    The decision values are ``k_rows @ coef + bias``, one column of ``alpha * y``
    per machine, and the class is their argmax; ties go to the lowest class id.
    A two-class model predicts ``classes[0]`` unless its decision value is
    negative, which is the argmax of the mirrored pair ``[f, -f]``.
    """
    instance("model", model, SvmModel)
    k_rows = reals("kernel rows", k_rows)
    if k_rows.ndim not in (1, 2) or k_rows.shape[-1] != model.train_size:
        raise ContractError(
            f"kernel rows of shape {k_rows.shape}, expected rows of length {model.train_size}"
        )
    coef = np.stack([m.alpha * m.y for m in model.machines], axis=1)
    values = k_rows @ coef + np.array([m.bias for m in model.machines])
    best = values[..., 0] < 0 if len(model.machines) == 1 else np.argmax(values, axis=-1)
    predicted = np.asarray(model.classes, dtype=np.int64)[best.astype(np.int64)]
    return int(predicted) if k_rows.ndim == 1 else predicted
