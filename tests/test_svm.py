from __future__ import annotations

import numpy as np
import pytest

from evokernel import svm
from evokernel.errors import TrainingError
from evokernel.experiment import stratified_folds
from evokernel.svm import BinarySvm, SvmModel, _smo, svm_predict, svm_train

from .oracles import primal_margin_oracle, reference_ovr_predict, reference_ovr_smo

BLOCK_KERNEL = np.array(
    [
        [1.0, 0.9, 0.0, 0.0],
        [0.9, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.9],
        [0.0, 0.0, 0.9, 1.0],
    ]
)
BLOCK_LABELS = np.array([0, 0, 1, 1])


def test_separable_blocks_reach_full_training_accuracy():
    model = svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.arange(4), c=1.0)
    preds = [svm_predict(model, row) for row in BLOCK_KERNEL]
    assert np.array_equal(preds, BLOCK_LABELS)


def test_dual_feasibility_invariants():
    model = svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.arange(4), c=1.0)
    for machine in model.machines:
        assert np.all(machine.alpha >= -1e-12)
        assert np.all(machine.alpha <= model.c + 1e-12)
        assert abs(np.dot(machine.alpha, machine.y)) <= 1e-8
        assert machine.kkt_residual <= 1e-3
        assert not machine.cap_hit


def _linear_fixture():
    points = np.array(
        [[0.0, 2.0], [1.0, 2.5], [-1.0, 2.2], [0.0, -2.0], [1.0, -2.5], [-1.0, -2.2]]
    )
    labels = np.array([1, 1, 1, 0, 0, 0])
    return points, labels


def test_dual_matches_primal_margin_oracle():
    points, labels = _linear_fixture()
    kernel = points @ points.T
    model = svm_train(kernel, labels, np.arange(6), c=1e6)
    w, b = primal_margin_oracle(points, np.where(labels == 1, 1, -1))

    held_out = np.array([[0.4, 1.1], [-0.3, -0.9], [2.0, 3.0], [1.5, -4.0]])
    for x in held_out:
        oracle_class = 1 if float(w @ x + b) > 0 else 0
        assert svm_predict(model, points @ x) == oracle_class
    for i, x in enumerate(points):
        assert svm_predict(model, points @ x) == labels[i]


def test_tiny_c_pushes_all_duals_to_the_box():
    rng = np.random.default_rng(55)
    points = rng.standard_normal((6, 2))
    kernel = points @ points.T
    labels = np.array([0, 1, 0, 1, 0, 1])  # noisy relative to geometry, balanced
    c = 1e-6
    model = svm_train(kernel, labels, np.arange(6), c=c)
    for machine in model.machines:
        assert np.allclose(machine.alpha, c, atol=1e-9)


def test_a_violation_equal_to_the_kkt_tolerance_has_converged(monkeypatch):
    """Convergence is violation <= KKT_TOL: at alpha = 0 the violation is 1 - (-1) = 2, so a
    tolerance of 2 takes no update and one just below it takes at least one."""
    monkeypatch.setattr(svm, "KKT_TOL", 2.0)
    assert svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.arange(4), c=1.0).machines[0].updates == 0
    monkeypatch.setattr(svm, "KKT_TOL", np.nextafter(2.0, 0))
    assert svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.arange(4), c=1.0).machines[0].updates >= 1


def test_a_box_narrower_than_its_epsilon_centers_the_bias():
    """With c below the box epsilon no entry is in the up or low set, so the bias is the mean
    KKT target at alpha = 0: the mean of y = (+1, -1, -1)."""
    machine = svm_train(np.eye(3), np.array([0, 1, 1]), [0, 1, 2], c=1e-13).machines[0]
    assert (machine.bias, machine.updates, machine.kkt_residual) == (-1 / 3, 0, 0.0)


def test_training_is_deterministic():
    rng = np.random.default_rng(56)
    raw = rng.standard_normal((10, 3))
    kernel = raw @ raw.T
    labels = (rng.random(10) > 0.5).astype(int)
    labels[:2] = [0, 1]  # both classes present
    first = svm_train(kernel, labels, np.arange(10), c=2.0)
    second = svm_train(kernel, labels, np.arange(10), c=2.0)
    for m1, m2 in zip(first.machines, second.machines):
        assert np.array_equal(m1.alpha, m2.alpha)
        assert m1.bias == m2.bias
        assert m1.updates == m2.updates


def test_single_class_training_set_rejected():
    with pytest.raises(TrainingError):
        svm_train(BLOCK_KERNEL, np.array([1, 1, 1, 1]), np.arange(4), c=1.0)
    with pytest.raises(TrainingError):
        svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.array([0, 1]), c=1.0)


def _machine(positive_class, y, alpha, bias=0.0):
    return BinarySvm(
        positive_class=positive_class,
        y=y,
        alpha=alpha,
        bias=bias,
        support=np.flatnonzero(alpha),
        kkt_residual=0.0,
        updates=0,
        cap_hit=False,
    )


def test_exact_tie_prefers_lowest_class():
    flat = _machine(0, np.array([1.0, -1.0]), np.zeros(2))
    model = SvmModel(classes=np.array([0, 1]), machines=[flat], c=1.0, train_size=2)
    assert svm_predict(model, np.zeros(2)) == 0
    flat.bias = -0.25
    assert svm_predict(model, np.zeros(2)) == 1


def test_two_classes_train_one_machine_mirroring_the_other():
    rng = np.random.default_rng(57)
    raw = rng.standard_normal((12, 3))
    kernel = raw @ raw.T
    labels = np.array([3, 5] * 6)
    model = svm_train(kernel, labels, np.arange(12), c=2.0)
    assert model.classes.tolist() == [3, 5]
    assert [m.positive_class for m in model.machines] == [3]
    (machine,) = model.machines
    mirror = reference_ovr_smo(kernel, np.where(labels == 5, 1.0, -1.0), 2.0)
    assert np.array_equal(mirror.alpha, machine.alpha)
    assert mirror.bias == -machine.bias
    assert mirror.updates == machine.updates


def _random_problem(rng, n, kind):
    if kind == "psd":
        raw = rng.standard_normal((n, 3))
        k = raw @ raw.T
    elif kind == "indefinite":
        a = rng.standard_normal((n, n))
        k = (a + a.T) / 2.0
    else:
        k = rng.standard_normal((n, n))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    return k, y


def _assert_same_machine(got, want):
    assert np.array_equal(got.y, want.y)
    assert np.array_equal(got.alpha, want.alpha)
    assert np.array_equal(got.support, want.support)
    assert (got.bias, got.kkt_residual) == (want.bias, want.kkt_residual)
    assert (got.updates, got.cap_hit) == (want.updates, want.cap_hit)


@pytest.mark.parametrize("kind", ["psd", "indefinite", "asymmetric"])
def test_smo_is_bit_equal_to_the_reference_loop(kind, monkeypatch):
    # One lockstep solve per cap over 15 problems of mixed size, each on its
    # own kernel of a (15 * 30, 30) stack. Problem p reads k.T scattered over
    # random rows of kernel p, and noise elsewhere: row i of a block is the
    # column k[:, i] that the reference reads, so the asymmetric kind reads
    # the same entries too.
    rng = np.random.default_rng(58)
    cap_hits = staggered = 0
    n = 30
    for cap in (1, 3, 50, 3000):
        problems = [_random_problem(rng, int(rng.integers(2, n)), kind) for _ in range(15)]
        c = float(10.0 ** rng.uniform(-3, 3))
        kernels = rng.standard_normal((15, n, n))
        rows = rng.integers(0, n, (15, n - 1))  # padding points anywhere
        ys, valid = np.ones(rows.shape), np.zeros(rows.shape, dtype=bool)
        for p, (k, y) in enumerate(problems):
            picked = rng.permutation(n)[: len(y)]
            kernels[p][np.ix_(picked, picked)] = k.T
            rows[p, : len(y)] = picked
            ys[p, : len(y)], valid[p, : len(y)] = y, True
        monkeypatch.setattr(svm, "MAX_UPDATES", cap)
        got = _smo(kernels.reshape(-1, n), np.arange(15) * n, rows, ys, valid, c)
        assert len(got) == 15
        for machine, (k, y) in zip(got, problems):
            _assert_same_machine(machine, reference_ovr_smo(k, y, c, 1e-3, cap))
        cap_hits += sum(m.cap_hit for m in got)
        staggered += len({m.updates for m in got}) > 1  # machines retired at different steps
    assert 0 < cap_hits < 60
    assert staggered > 0


def _assert_same_model(got, want):
    assert np.array_equal(got.classes, want.classes)
    assert (got.c, got.train_size) == (want.c, want.train_size)
    assert [m.positive_class for m in got.machines] == [m.positive_class for m in want.machines]
    for g, w in zip(got.machines, want.machines, strict=True):
        _assert_same_machine(g, w)


@pytest.mark.parametrize("class_count", [2, 3])
def test_one_lockstep_solve_over_all_folds_equals_separate_training(class_count, monkeypatch):
    rng = np.random.default_rng(63 + class_count)
    raw = rng.standard_normal((47, 4))
    kernel = np.exp(-np.sum((raw[:, None] - raw[None]) ** 2, axis=-1) / 4.0)
    labels = rng.permutation(np.arange(47) % class_count)
    train_sets = [train for train, _ in stratified_folds(labels, 10, seed=3)]
    assert len({len(train) for train in train_sets}) > 1
    free = [svm_train(kernel, labels, train, c=5.0) for train in train_sets]
    updates = sorted({m.updates for model in free for m in model.machines})
    for cap in (None, updates[len(updates) // 2]):
        if cap is not None:
            monkeypatch.setattr(svm, "MAX_UPDATES", cap)
        separate = [svm_train(kernel, labels, train, c=5.0) for train in train_sets]
        (together,) = svm._train_folds(kernel[None], labels, train_sets, 5.0)
        for got, want in zip(together, separate, strict=True):
            _assert_same_model(got, want)
            assert [m.positive_class for m in got.machines] == list(range(class_count))[: len(got.machines)]
        capped = [m.cap_hit for model in together for m in model.machines]
        assert any(capped) == (cap is not None) and not all(capped)


@pytest.mark.parametrize("class_count", [2, 3])
def test_one_solve_over_several_kernels_equals_training_each_kernel_alone(class_count, monkeypatch):
    # Three bandwidths of one point set, as a sweep's lengths give kernels of
    # one dataset; the cap stops some of the machines but not all.
    rng = np.random.default_rng(71 + class_count)
    raw = rng.standard_normal((41, 4))
    squared = np.sum((raw[:, None] - raw[None]) ** 2, axis=-1)
    kernels = np.stack([np.exp(-squared / width) for width in (1.0, 4.0, 16.0)])
    labels = rng.permutation(np.arange(41) % class_count)
    train_sets = [train for train, _ in stratified_folds(labels, 5, seed=4)]
    free = [svm_train(k, labels, train, c=5.0) for k in kernels for train in train_sets]
    updates = sorted({m.updates for model in free for m in model.machines})
    monkeypatch.setattr(svm, "MAX_UPDATES", updates[len(updates) // 2])
    together = svm._train_folds(kernels, labels, train_sets, 5.0)
    assert len(together) == len(kernels)
    capped = []
    for k, models in zip(kernels, together, strict=True):
        for train, got in zip(train_sets, models, strict=True):
            _assert_same_model(got, svm_train(k, labels, train, c=5.0))
        capped.append([m.cap_hit for model in models for m in model.machines])
    assert any(map(any, capped)) and not all(map(all, capped))


@pytest.mark.parametrize("class_count", [2, 3])
def test_predictions_equal_the_one_vs_rest_reference(class_count):
    rng = np.random.default_rng(59 + class_count)
    raw = rng.standard_normal((30, 4))
    kernel = np.exp(-np.sum((raw[:, None] - raw[None]) ** 2, axis=-1) / 4.0)
    labels = np.arange(30) % class_count
    train = np.arange(20)
    model = svm_train(kernel, labels, train, c=5.0)
    machines = [
        reference_ovr_smo(kernel[np.ix_(train, train)], np.where(labels[train] == cls, 1.0, -1.0), 5.0)
        for cls in range(class_count)
    ]
    rows = kernel[:, train]
    values = [[(m.alpha * m.y) @ row + m.bias for m in machines] for row in rows]
    preds = [svm_predict(model, row) for row in rows]
    assert np.array_equal(preds, reference_ovr_predict(model.classes, values))


@pytest.mark.parametrize("class_count", [2, 3])
def test_block_predictions_equal_single_rows_and_the_reference(class_count):
    rng = np.random.default_rng(61 + class_count)
    raw = rng.standard_normal((40, 3))
    kernel = np.exp(-np.sum((raw[:, None] - raw[None]) ** 2, axis=-1) / 2.0)
    labels = np.arange(40) % class_count
    train = np.arange(25)
    model = svm_train(kernel, labels, train, c=5.0)
    block = kernel[:, train]
    preds = svm_predict(model, block)
    assert preds.dtype == np.int64
    assert preds.tolist() == [svm_predict(model, row) for row in block]
    values = np.array([[(m.alpha * m.y) @ row + m.bias for m in model.machines] for row in block])
    if class_count == 2:
        values = np.hstack([values, -values])
    assert np.array_equal(preds, reference_ovr_predict(model.classes, values))


@pytest.mark.parametrize("class_count", [2, 3])
def test_prediction_ties_match_the_reference(class_count):
    # Machine m has alpha = e_m, y = 1 and bias 0, so its decision value on a
    # row is row[m] and ties can be exact.
    ones = np.ones(6)
    machines = [_machine(m, ones, np.eye(6)[m]) for m in range(1 if class_count == 2 else class_count)]
    model = SvmModel(classes=np.arange(class_count), machines=machines, c=1.0, train_size=6)
    rows = np.array(
        [
            [0.0, -0.0, 0.0, 0, 0, 0],
            [-0.0, 0.0, -0.0, 0, 0, 0],
            [-0.0, -0.0, 0.0, 0, 0, 0],
            [0.0, 0.0, -0.0, 0, 0, 0],
            [-1e-300, -1e-300, -1e-300, 0, 0, 0],
            [1e-300, 2e-300, 0.0, 0, 0, 0],
            [-1.0, 0.5, 2.0, 0, 0, 0],
        ]
    )
    if class_count == 2:
        values = np.stack([rows[:, 0], -rows[:, 0]], axis=1)
    else:
        values = rows[:, :3]
    preds = [svm_predict(model, row) for row in rows]
    assert np.array_equal(preds, reference_ovr_predict(model.classes, values))
    assert np.array_equal(svm_predict(model, rows), preds)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_training_kernel_rejected(bad):
    kernel = BLOCK_KERNEL.copy()
    kernel[1, 2] = kernel[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        svm_train(kernel, BLOCK_LABELS, np.arange(4), c=1.0)


def test_asymmetric_training_kernel_rejected():
    kernel = BLOCK_KERNEL.copy()
    kernel[0, 1] = np.nextafter(kernel[0, 1], 2.0)
    with pytest.raises(ValueError, match="symmetric"):
        svm_train(kernel, BLOCK_LABELS, np.arange(4), c=1.0)
    # Only the training block must be symmetric.
    kernel = BLOCK_KERNEL.copy()
    kernel[0, 3] += 0.5
    svm_train(kernel, BLOCK_LABELS, np.array([0, 1, 2]), c=1.0)


def test_three_class_one_vs_rest():
    kernel = np.kron(np.eye(3), np.array([[1.0, 0.8], [0.8, 1.0]]))
    labels = np.array([0, 0, 1, 1, 2, 2])
    model = svm_train(kernel, labels, np.arange(6), c=10.0)
    assert model.classes.tolist() == [0, 1, 2]
    assert len(model.machines) == 3
    preds = [svm_predict(model, row) for row in kernel]
    assert np.array_equal(preds, labels)


def test_update_cap_is_reported(monkeypatch):
    monkeypatch.setattr(svm, "MAX_UPDATES", 1)
    model = svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.arange(4), c=1.0)
    assert any(machine.cap_hit for machine in model.machines)
    assert all(machine.updates <= 1 for machine in model.machines)


def test_predict_validates_row_length():
    model = svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.arange(4), c=1.0)
    for shape in (3, (2, 3), (1, 1, 4), ()):
        with pytest.raises(ValueError, match="shape"):
            svm_predict(model, np.zeros(shape))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            svm_predict(model, np.full(4, bad))
        with pytest.raises(ValueError, match="non-finite"):
            svm_predict(model, np.vstack([np.zeros(4), np.full(4, bad)]))


def test_rejects_non_positive_c():
    with pytest.raises(ValueError):
        svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.arange(4), c=0.0)


@pytest.mark.parametrize("c", [np.nan, np.inf])
def test_rejects_non_finite_c(c):
    with pytest.raises(ValueError, match="finite"):
        svm_train(BLOCK_KERNEL, BLOCK_LABELS, np.arange(4), c=c)
