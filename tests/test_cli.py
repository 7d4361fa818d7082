from __future__ import annotations

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evokernel import experiment
from evokernel.cli import main
from evokernel.experiment import ExperimentConfig

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


@pytest.mark.parametrize(
    "hk, heat_method",
    [("exact", "exact"), ("taylor", "taylor2"), ("fiedler", "fiedler"), ("auto", "auto")],
)
@pytest.mark.parametrize("psd", ["none", "clip"])
def test_run_heat_method_flag_maps_to_taylor2(dataset_dir, tmp_path, hk, heat_method, psd):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST,
         "--hk", hk, "--psd", psd, "--out", str(out)]
    )
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert (config["heat_method"], config["psd_repair"]) == (heat_method, psd)


def test_run_without_options_echoes_the_config_defaults(dataset_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", "--folds", "3", "--out", str(out)]
    )
    assert code == 0
    config = json.loads(out.read_text())["config"]
    expected = ExperimentConfig(dataset_dir=str(dataset_dir), dataset_name="TRISTAR", folds=3).to_dict()
    assert {name: config[name] for name in expected} == expected


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


def test_non_utf8_dataset_file_fails_at_load_naming_the_file(dataset_dir, capsys):
    node_labels = dataset_dir / "TRISTAR_node_labels.txt"
    node_labels.write_bytes(b"\xff" + node_labels.read_bytes())
    code = main(["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST])
    assert code == 1
    err = capsys.readouterr().err
    assert "[load]" in err
    assert "TRISTAR_node_labels.txt: not UTF-8" in err


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
        ["--a=-inf"],
        ["--u0", "inf"],
        ["--gamma-scale", "nan"],
        ["--c", "inf"],
        ["--seed", "-1"],
        ["--time-length", "1e300"],
    ],
)
def test_non_finite_or_negative_seed_fails_at_config(dataset_dir, capsys, flags):
    code = main(["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST, *flags])
    assert code == 1
    assert "[config]" in capsys.readouterr().err


def test_too_deep_refinement_fails_at_config_before_loading(tmp_path, capsys):
    code = main(
        ["run", "--dataset", str(tmp_path / "missing"), "--name", "NOPE", *FAST,
         "--wl-iters", "40000000"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "[config]" in err
    assert "[load]" not in err


def test_unallocatable_embedding_fails_at_distances(dataset_dir, capsys):
    code = main(
        ["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST,
         "--emb-dim", "1000000000000000"]
    )
    assert code == 1
    assert "[distances] cannot allocate WL counts" in capsys.readouterr().err


def test_out_of_memory_fails_at_distances(dataset_dir, monkeypatch, capsys):
    message = "Unable to allocate 358. MiB for an array with shape (501, 93687)"

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(experiment, "_prefix_distance_matrices", exhausted)
    code = main(["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST])
    assert code == 1
    assert capsys.readouterr().err == f"evokernel: [distances] {message}\n"


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


def test_mutag_cumulative_fiedler_run_completes(mutag_dir, capsys):
    # Cumulative drops shrink some snapshots to one node, where the Fiedler
    # form does not exist and the exact kernel stands in.
    code = main(["run", "--dataset", str(mutag_dir), "--name", "MUTAG", "--seed", "42",
                 "--cumulative", "--hk", "fiedler"])
    assert code == 0
    assert "mean accuracy" in capsys.readouterr().out


def test_unwritable_output_fails_with_stage_tag(dataset_dir, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(
        ["run", "--dataset", str(dataset_dir), "--name", "TRISTAR", *FAST, "--out", str(out)]
    )
    assert code == 1
    assert "[output]" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    graphs = [triangle(), triangle(), triangle(), star(3), star(3), star(3)]
    directory = tmp_path_factory.mktemp("cli") / "TRISTAR"
    return write_tu_fixture(directory, "TRISTAR", graphs, labels=[0, 0, 0, 1, 1, 1])


_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300])
_STAGE_TAG = re.compile(r"\[(config|load|episodes|distances|kernel|cv|output)\]")


def _option(valid, edge=None, omitted=4):
    """None (flag omitted), a valid value, or, one time in ten, an edge value."""
    kinds = [None] * omitted + [valid] * (9 - omitted) + ([edge] if edge is not None else [])
    return st.sampled_from(kinds).flatmap(lambda values: st.none() if values is None else values)


# Lengths and intervals keep every grid at no more than 41 steps.
_LENGTH = st.floats(0.0, 1.0)
_OPTIONS = {
    "--time-length": _option(_LENGTH, st.floats(-1.0, -1e-9) | _SPECIAL),
    "--time-interval": _option(st.floats(0.025, 1.0), st.floats(-1.0, 0.0) | _SPECIAL),
    "--a": _option(st.floats(-5.0, 5.0), _SPECIAL),
    "--u0": _option(st.floats(0.01, 3.0), st.floats(-1.0, 0.0) | _SPECIAL),
    "--gamma-scale": _option(st.floats(0.01, 3.0), st.floats(-1.0, 0.0) | _SPECIAL),
    "--c": _option(st.floats(0.01, 20.0), st.floats(-1.0, 0.0) | _SPECIAL),
    "--wl-iters": _option(st.integers(0, 3), st.just(-1)),
    "--emb-dim": _option(st.integers(1, 4096), st.integers(-1, 0)),
    "--folds": _option(st.integers(2, 3), st.sampled_from([-1, 0, 1, 4]), omitted=0),
    "--seed": _option(st.integers(0, 2**40), st.just(-1)),
    "--psd": _option(st.sampled_from(["none", "clip"])),
    "--hk": _option(st.sampled_from(["exact", "taylor", "fiedler", "auto"])),
}


@st.composite
def cli_argv(draw, dataset, out_dir):
    command = draw(st.sampled_from(["run", "sweep"]))
    if draw(st.sampled_from([True, True, True, False])):
        argv = [command, f"--dataset={dataset}", "--name=TRISTAR"]
    else:
        argv = [command, f"--dataset={out_dir / 'absent'}", "--name=ABSENT"]
    for flag, values in _OPTIONS.items():
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        argv.append("--cumulative")
    if command == "sweep":
        lengths = st.lists(_LENGTH, min_size=1, max_size=3, unique=True).map(
            lambda xs: ",".join(map(str, sorted(xs)))
        )
        edge = st.sampled_from(["", ",", "fast", "0.5,0.2"])
        argv.append(f"--lengths={draw(_option(lengths, edge, omitted=0))}")
    if command == "sweep" or draw(st.booleans()):
        name = draw(st.sampled_from(["out.txt"] * 5 + ["absent/out.txt"]))
        argv.append(f"--out={out_dir / name}")
    return argv


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_parsed_argv_exits_0_or_1_with_stage_tag(tiny_dir, data):
    """Every argv that argparse accepts either succeeds or fails with a stage
    tag; none raises. Sizes stay small: six graphs of up to four nodes, at
    most 41 grid steps, at most 4096 embedding buckets."""
    argv = data.draw(cli_argv(tiny_dir, tiny_dir.parent))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert _STAGE_TAG.search(err.getvalue()), err.getvalue()
