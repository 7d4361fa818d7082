from __future__ import annotations

import warnings
from dataclasses import replace

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
from evokernel.kernel import distance_matrix
from evokernel.tu_io import GraphDataset

from .conftest import star, triangle


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
    with pytest.raises(ConfigError, match="class 1 has only 2"):
        stratified_folds(labels, 3, seed=0)


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


def test_update_cap_hits_raise_one_warning(monkeypatch):
    monkeypatch.setattr(svm, "MAX_UPDATES", 1)
    with pytest.warns(RuntimeWarning, match=r"time length 1\.0: .*fold 0 class 0 \(1 updates\)") as caught:
        run_experiment(fast_config(), dataset=synthetic_dataset())
    assert len(caught) == 1


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
    for stage in ("load", "episodes", "distances"):
        assert reports[0].timings[stage] == reports[1].timings[stage]
    assert list(reports[0].timings) == ["load", "episodes", "distances", "kernel", "cv"]


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
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(experiment_module, "_prefix_distance_matrices", recording)
    run_experiment(cfg, dataset=dataset)
    times = cfg.time_grid()
    boltzmann = cfg.boltzmann_config()
    episodes = [
        generate_episode(g, times, boltzmann, cfg.u0, cfg.seed, graph_index=i, method=method, cumulative=cumulative)
        for i, g in enumerate(dataset.graphs)
    ]
    assert np.array_equal(seen[0][len(times)], distance_matrix(episodes, cfg.metric_config()))
