from __future__ import annotations

import warnings
import weakref
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import evokernel.experiment as experiment_module
from evokernel import svm
from evokernel.augment import generate_episode
from evokernel.errors import ConfigError, StageError
from evokernel.experiment import (
    MAX_TIME_STEPS,
    CvReport,
    ExperimentConfig,
    run_experiment,
    stratified_folds,
    sweep_time_length,
    write_sweep_csv,
)
from evokernel.graphs import Graph
from evokernel.kernel import distance_matrix
from evokernel.svm import svm_train
from evokernel.tu_io import GraphDataset

from .conftest import star, triangle
from .oracles import (
    reference_generate_episode,
    reference_ovr_predict,
    reference_ovr_smo,
    reference_prefix_distances,
)


def synthetic_dataset() -> GraphDataset:
    graphs = [triangle(), triangle(), triangle(), star(3), star(3), star(3)]
    labels = np.array([0, 0, 0, 1, 1, 1])
    return GraphDataset(graphs=graphs, labels=labels, name="TRI-VS-STAR")


def fast_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset_name="TRI-VS-STAR",
        time_length=1.0,
        time_interval=0.1,
        folds=3,
        seed=1,
        embedding_dim=256,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_balanced_classes_split_evenly():
    labels = np.array([0, 1] * 5)
    folds = stratified_folds(labels, 5, seed=3)
    assert len(folds) == 5
    for train, test in folds:
        assert len(test) == 2
        assert sorted(labels[test].tolist()) == [0, 1]
        assert len(np.intersect1d(train, test)) == 0


def test_folds_partition_the_dataset():
    labels = np.array([0] * 7 + [1] * 12 + [2] * 5)
    folds = stratified_folds(labels, 4, seed=9)
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test.tolist()) == list(range(24))
    for cls in (0, 1, 2):
        per_fold = [int(np.sum(labels[test] == cls)) for _, test in folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_folds_deterministic_under_seed():
    labels = np.array([0, 1] * 20)
    first = stratified_folds(labels, 10, seed=42)
    second = stratified_folds(labels, 10, seed=42)
    for (tr1, te1), (tr2, te2) in zip(first, second):
        assert np.array_equal(tr1, tr2)
        assert np.array_equal(te1, te2)
    shuffled = stratified_folds(labels, 10, seed=43)
    assert any(
        not np.array_equal(te1, te2) for (_, te1), (_, te2) in zip(first, shuffled)
    )


def test_small_class_rejected():
    labels = np.array([0] * 9 + [1] * 2)
    with pytest.raises(ConfigError, match="class 1 has only 2 members; reduce folds to at most 2"):
        stratified_folds(labels, 3, seed=0)
    # No fold count below 2 exists, so a one-member class cannot be told to reduce folds to 1.
    with pytest.raises(ConfigError, match="^class 1 has only 1 member; a class needs at least 2 members$"):
        stratified_folds(labels[:-1], 3, seed=0)


def test_mutag_fold_sizes(mutag):
    folds = stratified_folds(mutag.labels, 10, seed=0)
    class_counts = np.bincount(mutag.labels)
    assert sorted(class_counts.tolist()) == [63, 125]
    for _, test in folds:
        assert len(test) in (18, 19)
        for cls in (0, 1):
            in_fold = int(np.sum(mutag.labels[test] == cls))
            expected = class_counts[cls] / 10.0
            assert abs(in_fold - expected) <= 1.0


def test_synthetic_fixture_separates_perfectly():
    report = run_experiment(fast_config(), dataset=synthetic_dataset())
    assert report.mean_accuracy == 1.0
    assert report.std_accuracy == 0.0
    assert len(report.fold_accuracies) == 3
    assert report.confusion == [[3, 0], [0, 3]]


@pytest.mark.parametrize("labels", [[-1, -1, -1, 1, 1, 1], [5, 5, 5, 7, 7, 7]])
def test_confusion_is_indexed_by_class_rank(labels):
    dataset = replace(synthetic_dataset(), labels=np.array(labels))
    report = run_experiment(fast_config(), dataset=dataset)
    assert report.confusion == [[3, 0], [0, 3]]


def test_zero_length_grid_degenerates_to_static_run():
    report = run_experiment(fast_config(time_length=0.0), dataset=synthetic_dataset())
    assert report.config["times"] == [0.0]
    assert 0.0 <= report.mean_accuracy <= 1.0


def test_time_grid_construction():
    assert fast_config().time_grid().tolist() == pytest.approx(
        [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    )
    assert fast_config(time_length=0.95).time_grid().size == 10
    assert fast_config(time_length=2.0, time_interval=0.2).time_grid().size == 11


def test_time_grid_is_the_runs_grid():
    # A float32 interval runs as the float it holds, just above 0.1: 10 steps, not 11.
    cfg = fast_config(time_interval=np.float32(0.1))
    assert cfg.time_grid().size == 10
    assert cfg.time_grid().tolist() == run_experiment(cfg, dataset=synthetic_dataset()).config["times"]


BAD_GRIDS = {
    "zero-interval": dict(time_interval=0.0),
    "text-interval": dict(time_interval="0.1"),
    "infinite-length": dict(time_length=float("inf")),
}


@pytest.mark.parametrize("case", sorted(BAD_GRIDS))
def test_time_grid_of_a_bad_config_raises_config_error(case):
    with pytest.raises(ConfigError):
        fast_config(**BAD_GRIDS[case]).time_grid()


def test_report_is_deterministic():
    first = run_experiment(fast_config(), dataset=synthetic_dataset())
    second = run_experiment(fast_config(), dataset=synthetic_dataset())
    assert first.canonical_json() == second.canonical_json()
    assert "timings" not in first.canonical_json()
    assert "timings" in first.to_json()


def test_report_statistics_are_consistent():
    report = run_experiment(fast_config(), dataset=synthetic_dataset())
    assert report.mean_accuracy == pytest.approx(np.mean(report.fold_accuracies), abs=1e-12)
    assert report.std_accuracy == pytest.approx(np.std(report.fold_accuracies), abs=1e-12)
    assert sum(map(sum, report.confusion)) == 6  # every graph tested exactly once
    assert report.timings.keys() >= {"load", "episodes", "distances", "kernel", "cv"}


def test_distances_computed_once_per_run(monkeypatch):
    calls = {"n": 0}
    original = experiment_module._prefix_distance_matrices

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment_module, "_prefix_distance_matrices", counting)
    run_experiment(fast_config(), dataset=synthetic_dataset())
    assert calls["n"] == 1
    sweep_time_length(fast_config(), [0.2, 0.5, 1.0], dataset=synthetic_dataset())
    assert calls["n"] == 2


def test_invalid_configs_rejected():
    with pytest.raises(StageError, match=r"\[config\]"):
        run_experiment(fast_config(folds=1), dataset=synthetic_dataset())
    with pytest.raises(StageError, match=r"\[config\]"):
        run_experiment(fast_config(time_interval=0.0), dataset=synthetic_dataset())
    with pytest.raises(StageError, match=r"\[config\]"):
        run_experiment(fast_config(psd_repair="maybe"), dataset=synthetic_dataset())
    with pytest.raises(StageError, match=r"\[config\]"):
        run_experiment(fast_config(heat_method="pade"), dataset=synthetic_dataset())


def test_time_grid_length_is_bounded():
    fast_config(time_length=float(MAX_TIME_STEPS), time_interval=1.0).validate()
    for length, interval in ((MAX_TIME_STEPS + 1.0, 1.0), (1e300, 0.1), (1e300, 1e-300)):
        cfg = fast_config(time_length=length, time_interval=interval)
        with pytest.raises(StageError, match=r"\[config\].*steps"):
            run_experiment(cfg, dataset=synthetic_dataset())


def test_load_failure_is_stage_tagged(tmp_path):
    cfg = fast_config(dataset_dir=str(tmp_path / "nowhere"), dataset_name="GONE")
    with pytest.raises(StageError, match=r"\[load\]"):
        run_experiment(cfg)


BAD_DATASETS = {
    "labels-list": (lambda d: replace(d, labels=d.labels.tolist()), "labels must be a numpy array, got a list"),
    "float-labels": (lambda d: replace(d, labels=d.labels.astype(float)), "labels must be a 1-d array of integers"),
    "fewer-graphs": (lambda d: replace(d, graphs=d.graphs[1:]), "has 5 graphs but 6 labels"),
    "tuple": (lambda d: (d.graphs, d.labels), "must be a GraphDataset, got a tuple"),
    "graph-generator": (lambda d: replace(d, graphs=(g for g in d.graphs)), "list of Graph, got a generator"),
    "graph-pair": (lambda d: replace(d, graphs=d.graphs[:5] + [(3, [])]), "graph 5 must be a Graph, got a tuple"),
    "no-graphs": (lambda d: replace(d, graphs=[], labels=d.labels[:0]), "dataset has no graphs"),
}


@pytest.mark.parametrize("sweep", [False, True])
@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_bad_caller_dataset_fails_at_load_before_the_episodes(monkeypatch, case, sweep):
    def no_episodes(*args):
        raise AssertionError("episodes drawn from an unchecked dataset")

    monkeypatch.setattr(experiment_module, "_episode_masks", no_episodes)
    make, message = BAD_DATASETS[case]
    dataset = make(synthetic_dataset())
    with pytest.raises(StageError, match=r"^\[load\] .*" + message) as caught:
        if sweep:
            sweep_time_length(fast_config(), [0.5, 1.0], dataset=dataset)
        else:
            run_experiment(fast_config(), dataset=dataset)
    assert caught.value.stage == "load"


def test_update_cap_hits_raise_one_warning(monkeypatch):
    monkeypatch.setattr(svm, "MAX_UPDATES", 1)
    with pytest.warns(RuntimeWarning, match=r"time length 1\.0: .*fold 0 class 0 \(1 updates\)") as caught:
        run_experiment(fast_config(), dataset=synthetic_dataset())
    assert len(caught) == 1


def three_class_dataset() -> GraphDataset:
    paw = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    graphs = [triangle(), triangle(), paw, triangle(), star(3), star(3), star(4), star(2)]
    graphs += [Graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (4, 5, 3)]
    graphs.append(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    return GraphDataset(graphs=graphs, labels=np.repeat([0, 1, 2], 4), name="THREE")


def test_update_cap_warning_names_each_capped_machine_with_its_updates(monkeypatch):
    # Machines retire at different update counts; the warning names exactly
    # those that one-fold training also stops at the cap, with their counts.
    dataset, cfg = three_class_dataset(), fast_config()
    kernels = []
    build = experiment_module.evolution_kernel
    monkeypatch.setattr(experiment_module, "evolution_kernel", lambda *a: kernels.append(build(*a)) or kernels[-1])
    run_experiment(cfg, dataset=dataset)

    def machines():
        folds = stratified_folds(dataset.labels, cfg.folds, cfg.seed)
        fold_models = [svm_train(kernels[0], dataset.labels, train, cfg.c) for train, _ in folds]
        return [(fold, m) for fold, model in enumerate(fold_models) for m in model.machines]

    counts = sorted({m.updates for _, m in machines()})
    monkeypatch.setattr(svm, "MAX_UPDATES", counts[len(counts) // 2])
    capped = [f"fold {fold} class {m.positive_class} ({m.updates} updates)" for fold, m in machines() if m.cap_hit]
    assert 0 < len(capped) < len(machines()) and len(counts) > 1
    with pytest.warns(RuntimeWarning) as caught:
        run_experiment(cfg, dataset=dataset)
    assert [str(w.message) for w in caught] == [
        "time length 1.0: SMO stopped at its update cap before convergence in " + ", ".join(capped)
    ]


def test_infeasible_fold_count_fails_before_the_episodes(monkeypatch):
    def no_episodes(*args):
        raise AssertionError("episodes drawn before the folds were split")

    monkeypatch.setattr(experiment_module, "_episode_masks", no_episodes)
    with pytest.raises(StageError, match=r"\[cv\].*reduce folds to at most 3"):
        run_experiment(fast_config(folds=64), dataset=synthetic_dataset())
    with pytest.raises(StageError, match=r"\[cv\].*reduce folds to at most 3"):
        sweep_time_length(fast_config(folds=4), [0.5, 1.0], dataset=synthetic_dataset())


@pytest.mark.parametrize("sweep", [False, True])
def test_count_matrix_is_freed_before_the_kernel(monkeypatch, sweep):
    """The distance stage drops the WL count matrix once the distances are read from it, so
    it is not held through the kernel and cv stages."""
    counts = []
    prefix, build = experiment_module._prefix_distance_matrices, experiment_module.evolution_kernel

    def distances(matrix, *args):
        counts.append(weakref.ref(matrix))
        return prefix(matrix, *args)

    def kernel(*args):
        assert counts[0]() is None, "the count matrix is alive at the kernel stage"
        return build(*args)

    monkeypatch.setattr(experiment_module, "_prefix_distance_matrices", distances)
    monkeypatch.setattr(experiment_module, "evolution_kernel", kernel)
    if sweep:
        sweep_time_length(fast_config(), [0.5, 1.0], dataset=synthetic_dataset())
    else:
        run_experiment(fast_config(), dataset=synthetic_dataset())
    assert len(counts) == 1


def test_default_mutag_run_warns_nothing(mutag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(ExperimentConfig(dataset_name="MUTAG", seed=42), dataset=mutag)
    assert report.mean_accuracy >= 0.80


@pytest.mark.parametrize(
    "cell, value, message",
    [((0, 1), 1e-9, "not exactly symmetric"), ((2, 2), np.nan, "non-finite")],
)
def test_bad_training_kernel_fails_at_cv(monkeypatch, cell, value, message):
    build = experiment_module.evolution_kernel

    def damaged(*args, **kwargs):
        ek = build(*args, **kwargs)
        ek.k[cell] += value
        return ek

    monkeypatch.setattr(experiment_module, "evolution_kernel", damaged)
    with pytest.raises(StageError, match=rf"\[cv\] training kernel .*{message}"):
        run_experiment(fast_config(), dataset=synthetic_dataset())


def test_cumulative_and_heat_method_options_run():
    report = run_experiment(
        fast_config(cumulative=True, heat_method="auto", time_length=0.4, time_interval=0.2),
        dataset=synthetic_dataset(),
    )
    assert 0.0 <= report.mean_accuracy <= 1.0


def test_sweep_single_length():
    reports = sweep_time_length(fast_config(), [0.1], dataset=synthetic_dataset())
    assert len(reports) == 1
    assert reports[0].config["time_length"] == 0.1


def test_sweep_emits_one_report_per_length(tmp_path):
    lengths = [0.2, 0.4, 0.6, 0.8, 1.0]
    reports = sweep_time_length(
        fast_config(time_interval=0.2), lengths, dataset=synthetic_dataset()
    )
    assert [r.config["time_length"] for r in reports] == lengths
    assert all(0.0 <= r.mean_accuracy <= 1.0 for r in reports)
    csv_path = tmp_path / "curve.csv"
    write_sweep_csv(reports, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "time_length,mean_accuracy,std_accuracy"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.2
    assert 0.0 <= float(first[1]) <= 1.0


def test_sweep_requires_ascending_lengths():
    with pytest.raises(StageError, match="ascending"):
        sweep_time_length(fast_config(), [0.4, 0.2], dataset=synthetic_dataset())


def test_sweep_refuses_equal_lengths_at_config():
    with pytest.raises(StageError, match="strictly ascending") as info:
        sweep_time_length(fast_config(), [0.2, 0.2], dataset=synthetic_dataset())
    assert info.value.stage == "config"


def mixed_dataset() -> GraphDataset:
    graphs = [triangle(), star(3), star(4), triangle(), star(2), star(5), star(3), triangle()]
    labels = np.array([0, 1, 1, 0, 1, 1, 0, 0])
    return GraphDataset(graphs=graphs, labels=labels, name="MIXED")


@pytest.mark.parametrize(
    "options", [{}, {"cumulative": True, "heat_method": "auto"}], ids=["default", "cumulative-auto"]
)
def test_sweep_reports_equal_separate_runs(options):
    # 0.2 and 0.25 share a grid at interval 0.2; 0.5 and 0.9 are not multiples of it.
    cfg = fast_config(time_interval=0.2, folds=2, **options)
    lengths = [0.0, 0.2, 0.25, 0.5, 0.9, 1.0]
    dataset = mixed_dataset()
    reports = sweep_time_length(cfg, lengths, dataset=dataset)
    assert len(reports) == len(lengths)
    for t, report in zip(lengths, reports):
        alone = run_experiment(replace(cfg, time_length=t), dataset=dataset)
        assert report.canonical_json() == alone.canonical_json()
    assert reports[1].config["times"] == reports[2].config["times"] == [0.0, 0.2]
    assert reports[2].config["time_length"] == 0.25


def test_sweep_shares_measured_stage_timings():
    reports = sweep_time_length(fast_config(), [0.3, 0.6], dataset=synthetic_dataset())
    for stage in ("load", "episodes", "distances", "cv"):
        assert reports[0].timings[stage] == reports[1].timings[stage]
    assert reports[0].timings["kernel"] != reports[1].timings["kernel"]
    assert list(reports[0].timings) == ["load", "episodes", "distances", "kernel", "cv"]


def test_sweep_trains_every_machine_in_one_solve(monkeypatch):
    solves = []
    solve = svm._smo

    def counting(*args):
        solves.append(solve(*args))
        return solves[-1]

    monkeypatch.setattr(svm, "_smo", counting)
    lengths = [0.2, 0.25, 0.6, 1.0]
    reports = sweep_time_length(fast_config(time_interval=0.2), lengths, dataset=three_class_dataset())
    assert len(reports) == len(lengths)
    # Lengths x 3 folds x 3 one-vs-rest classes.
    assert [len(machines) for machines in solves] == [len(lengths) * 3 * 3]


def test_sweep_warns_once_per_capped_length_as_separate_runs_do(monkeypatch):
    # At this cap the machines of lengths 0.2 and 0.9 stop early, those of 0.5 do not.
    dataset, cfg, lengths = three_class_dataset(), fast_config(), [0.2, 0.5, 0.9]
    monkeypatch.setattr(svm, "MAX_UPDATES", 22)

    def messages(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert all(w.category is RuntimeWarning for w in caught)
        return [str(w.message) for w in caught]

    alone = [messages(lambda: run_experiment(replace(cfg, time_length=t), dataset=dataset)) for t in lengths]
    assert [len(m) for m in alone] == [1, 0, 1]
    assert messages(lambda: sweep_time_length(cfg, lengths, dataset=dataset)) == alone[0] + alone[2]


def test_out_of_memory_fails_at_distances(monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 358. MiB for an array with shape (501, 93687)")

    monkeypatch.setattr(experiment_module, "_prefix_distance_matrices", exhausted)
    with pytest.raises(StageError, match=r"^\[distances\] Unable to allocate 358\. MiB") as caught:
        run_experiment(fast_config(), dataset=synthetic_dataset())
    assert isinstance(caught.value.cause, MemoryError)


@pytest.mark.parametrize("lengths", [[], [0.1, float("nan")], [0.1, None], [0.1, -0.5]])
def test_sweep_rejects_bad_lengths_before_loading(lengths, tmp_path):
    cfg = fast_config(dataset_dir=str(tmp_path / "nowhere"), dataset_name="GONE")
    with pytest.raises(StageError, match=r"\[config\]"):
        sweep_time_length(cfg, lengths)


@pytest.mark.parametrize(
    "field, value",
    [
        ("time_length", "1"),
        ("time_interval", None),
        ("a", True),
        ("c", [10.0]),
        ("folds", 2.5),
        ("seed", "42"),
        ("wl_iterations", 3.0),
        ("embedding_dim", False),
        ("dataset_name", 7),
        ("psd_repair", None),
        ("heat_method", b"exact"),
        ("cumulative", "false"),
        ("cumulative", 1),
        ("cumulative", None),
    ],
)
def test_mistyped_config_fields_fail_at_config(field, value):
    with pytest.raises(StageError, match=r"\[config\]"):
        run_experiment(fast_config(**{field: value}), dataset=synthetic_dataset())


def test_numpy_bool_cumulative_runs_and_echoes_true():
    report = run_experiment(fast_config(cumulative=np.True_), dataset=synthetic_dataset())
    assert '"cumulative": true' in report.canonical_json()
    plain = run_experiment(fast_config(cumulative=True), dataset=synthetic_dataset())
    assert report.canonical_json() == plain.canonical_json()


def test_numpy_scalar_fields_give_the_same_report():
    typed = fast_config(time_length=np.float64(0.5), folds=np.int64(3), seed=np.int32(1))
    report = run_experiment(typed, dataset=synthetic_dataset())
    plain = run_experiment(fast_config(time_length=0.5), dataset=synthetic_dataset())
    assert report.canonical_json() == plain.canonical_json()


def test_numpy_integer_embedding_size_gives_the_same_report():
    typed = fast_config(embedding_dim=np.int64(64), wl_iterations=np.int64(2))
    report = run_experiment(typed, dataset=synthetic_dataset())
    plain = run_experiment(fast_config(embedding_dim=64, wl_iterations=2), dataset=synthetic_dataset())
    assert report.canonical_json() == plain.canonical_json()


_REALS = (np.float16, np.float32, np.float64, np.longdouble)
_INTEGERS = (np.int8, np.int32, np.uint64)


@pytest.mark.parametrize(
    "field, kind",
    [(f, kind) for f in ("time_length", "time_interval", "a", "u0", "gamma_scale", "c") for kind in _REALS]
    + [(f, kind) for f in ("wl_iterations", "embedding_dim", "folds", "seed") for kind in _INTEGERS]
    + [("cumulative", np.bool_)],
)
def test_numpy_field_reruns_from_its_echo(field, kind):
    """A numpy field runs as its Python value, so the report serializes and the config it
    echoes reruns to the same report, a float32 time grid included."""
    base = fast_config(embedding_dim=64)  # an int8 holds it
    report = run_experiment(replace(base, **{field: kind(getattr(base, field))}), dataset=synthetic_dataset())
    echoed = ExperimentConfig(**{f.name: report.config[f.name] for f in fields(ExperimentConfig)})
    assert report.canonical_json() == run_experiment(echoed, dataset=synthetic_dataset()).canonical_json()


def test_validate_returns_the_plain_config():
    typed = fast_config(time_interval=np.float32(0.1), seed=np.uint64(1), cumulative=np.True_)
    plain = typed.validate()
    assert [type(getattr(plain, f.name)) for f in fields(plain)] == [type(f.default) for f in fields(plain)]
    assert (plain.time_interval, plain.seed, plain.cumulative) == (float(np.float32(0.1)), 1, True)
    assert plain.validate() == plain
    with pytest.raises(FrozenInstanceError):
        plain.seed = 2


def test_report_roundtrips_through_json():
    import json

    report = run_experiment(fast_config(), dataset=synthetic_dataset())
    payload = json.loads(report.to_json())
    assert payload["mean_accuracy"] == report.mean_accuracy
    assert payload["config"]["seed"] == 1
    assert payload["std_definition"].startswith("population")
    rebuilt = CvReport(
        fold_accuracies=payload["fold_accuracies"],
        mean_accuracy=payload["mean_accuracy"],
        std_accuracy=payload["std_accuracy"],
        confusion=payload["confusion"],
        config=payload["config"],
    )
    assert rebuilt.canonical_json() == report.canonical_json()


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("method", ["exact", "taylor2", "fiedler", "auto"])
def test_run_distances_equal_those_of_generated_episodes(mutag, monkeypatch, method, cumulative):
    """A run embeds masks, not snapshot graphs; its distances are those of generate_episode's episodes."""
    dataset = GraphDataset(graphs=mutag.graphs[:40], labels=mutag.labels[:40], name="MUTAG40")
    cfg = ExperimentConfig(seed=42, folds=3, heat_method=method, cumulative=cumulative)
    seen = []
    original = experiment_module._prefix_distance_matrices

    def recording(*args):
        distances = original(*args)
        seen.append(dict(distances))  # the run deletes each matrix once its kernels are built
        return distances

    monkeypatch.setattr(experiment_module, "_prefix_distance_matrices", recording)
    run_experiment(cfg, dataset=dataset)
    times = cfg.time_grid()
    boltzmann = cfg.boltzmann_config()
    episodes = [
        generate_episode(g, times, boltzmann, cfg.u0, cfg.seed, graph_index=i, method=method, cumulative=cumulative)
        for i, g in enumerate(dataset.graphs)
    ]
    assert np.array_equal(seen[0][len(times)], distance_matrix(episodes, cfg.metric_config()))


def test_sweep_equals_the_oracle_pipeline(mutag, monkeypatch):
    """The run's glue against an oracle-only pipeline: prefix reads, kernel stack and fold models.

    Episodes, prefix distances and one-vs-rest SMO come from ``tests/oracles.py``;
    the median bandwidth, ``exp`` and the eigenvalue clip are numpy. Only the fold
    split is the library's.
    """
    dataset = GraphDataset(graphs=mutag.graphs[:30], labels=mutag.labels[:30], name="MUTAG30")
    cfg = ExperimentConfig(seed=42, folds=3)
    lengths = [0.5, 1.0]
    seen = []
    original = experiment_module._prefix_distance_matrices

    def recording(*args):
        distances = original(*args)
        seen.append(dict(distances))  # the run deletes each matrix once its kernels are built
        return distances

    monkeypatch.setattr(experiment_module, "_prefix_distance_matrices", recording)
    reports = sweep_time_length(cfg, lengths, dataset=dataset)

    grids = [replace(cfg, time_length=t).time_grid() for t in lengths]
    episodes = [
        reference_generate_episode(g, grids[-1], cfg.boltzmann_config(), cfg.u0, cfg.seed, graph_index=i)
        for i, g in enumerate(dataset.graphs)
    ]
    expected = reference_prefix_distances(episodes, cfg.metric_config(), [len(grid) for grid in grids])
    assert len(seen) == 1 and sorted(seen[0]) == sorted(expected)
    folds = stratified_folds(dataset.labels, cfg.folds, cfg.seed)
    classes = np.unique(dataset.labels)
    for grid, report in zip(grids, reports):
        d = expected[len(grid)]
        assert np.abs(seen[0][len(grid)] - d).max() <= 1e-12
        k = np.exp(-d / (cfg.gamma_scale * np.median(d[~np.eye(len(d), dtype=bool)])))
        w, v = np.linalg.eigh(k)
        k = (v * np.clip(w, 0.0, None)) @ v.T
        k = (k + k.T) / 2.0
        confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
        accuracies = []
        for train, test in folds:
            values = np.zeros((len(test), len(classes)))
            for at, cls in enumerate(classes):
                y = np.where(dataset.labels[train] == cls, 1.0, -1.0)
                machine = reference_ovr_smo(k[np.ix_(train, train)], y, cfg.c)
                values[:, at] = k[np.ix_(test, train)] @ (machine.alpha * y) + machine.bias
            predicted = reference_ovr_predict(classes, values)
            truth = dataset.labels[test]
            np.add.at(confusion, (np.searchsorted(classes, truth), np.searchsorted(classes, predicted)), 1)
            accuracies.append(np.count_nonzero(predicted == truth) / len(test))
        assert report.fold_accuracies == accuracies
        assert report.confusion == confusion.tolist()
