from __future__ import annotations

import json

import pytest

from evokernel.cli import main

from .conftest import star, triangle, write_tu_fixture

FAST = [
    "--time-length", "0.4",
    "--time-interval", "0.2",
    "--folds", "3",
    "--seed", "7",
    "--emb-dim", "128",
]


@pytest.fixture
def dataset_dir(tmp_path):
    graphs = [triangle(), triangle(), triangle(), star(3), star(3), star(3)]
    return write_tu_fixture(tmp_path / "TRISTAR", "TRISTAR", graphs, labels=[0, 0, 0, 1, 1, 1])


def test_run_writes_report_and_prints_table(dataset_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST, "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mean accuracy" in stdout
    assert "fold  1" in stdout
    payload = json.loads(out.read_text())
    assert payload["mean_accuracy"] == 1.0
    assert payload["config"]["dataset_name"] == "TRISTAR"
    assert payload["config"]["times"] == [0.0, 0.2, 0.4]
    assert "timings" in payload


def test_run_without_out_only_prints(dataset_dir, capsys):
    code = main(["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST])
    assert code == 0
    assert "mean accuracy" in capsys.readouterr().out


def test_run_heat_method_flag_maps_to_taylor2(dataset_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST,
         "--hk", "taylor", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["heat_method"] == "taylor2"


def test_run_cumulative_flag(dataset_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST,
         "--cumulative", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["cumulative"] is True


def test_missing_dataset_fails_with_stage_tag(tmp_path, capsys):
    code = main(["run", "--dataset", str(tmp_path / "missing"), "--name", "NOPE", *FAST])
    assert code == 1
    err = capsys.readouterr().err
    assert "[load]" in err
    assert "missing file" in err


def test_invalid_config_fails_with_stage_tag(dataset_dir, capsys):
    code = main(
        ["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", "--folds", "1"]
    )
    assert code == 1
    assert "[config]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--time-length", "nan"],
        ["--time-length", "inf"],
        ["--time-interval", "nan"],
        ["--time-length", "1e300", "--time-interval", "1e-300"],
        ["--a", "nan"],
        ["--b=-inf"],
        ["--u0", "inf"],
        ["--gamma-scale", "nan"],
        ["--c", "inf"],
        ["--seed", "-1"],
    ],
)
def test_non_finite_or_negative_seed_fails_at_config(dataset_dir, capsys, flags):
    code = main(["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST, *flags])
    assert code == 1
    assert "[config]" in capsys.readouterr().err


def test_sweep_writes_curve(dataset_dir, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
        ["sweep", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST,
         "--lengths", "0.2,0.4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "time_length,mean_accuracy,std_accuracy"
    assert len(lines) == 3
    stdout = capsys.readouterr().out
    assert "T=0.2" in stdout


def test_sweep_rerun_is_byte_identical(dataset_dir, tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    argv = ["sweep", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST,
            "--lengths", "0.2,0.4"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_rejects_malformed_lengths(dataset_dir, tmp_path, capsys):
    code = main(
        ["sweep", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST,
         "--lengths", "0.2,fast", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "[config]" in capsys.readouterr().err


def test_sweep_rejects_descending_lengths(dataset_dir, tmp_path, capsys):
    code = main(
        ["sweep", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST,
         "--lengths", "0.4,0.2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "ascending" in capsys.readouterr().err


@pytest.mark.parametrize("lengths", [",", "0.1,nan"])
def test_sweep_rejects_empty_or_non_finite_lengths_before_loading(tmp_path, capsys, lengths):
    out = tmp_path / "x.csv"
    code = main(
        ["sweep", "--dataset", str(tmp_path / "missing"), "--name", "NOPE", *FAST,
         "--lengths", lengths, "--out", str(out)]
    )
    assert code == 1
    assert "[config]" in capsys.readouterr().err
    assert not out.exists()
