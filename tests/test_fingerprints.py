"""Pinned fingerprints of what MUTAG at seed 42 computes.

``tests/data/fingerprints.json`` holds SHA-256 digests of the loaded dataset,
of every episode mask array under each heat method in both modes, of the
default run's distance matrix, of the distance matrix of the first
``LONG_GRID_GRAPHS`` graphs on a 201-step grid in both modes (one episode per
block), and of the README sweep's CSV, plus the fold
accuracies and confusion matrices of the default run and of a
``--cumulative --hk auto`` run. Only platform-stable values are pinned: masks
read ``eigh`` only through a Bernoulli threshold and distances come from an
exact integer Gram and correctly rounded operations, so after the kernel's
``exp`` and ``eigh`` only accuracies and confusion are.

A change that means to move one of them rewrites the file with
``PYTHONPATH=src python -m tests.test_fingerprints`` and says so.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

from evokernel import ExperimentConfig, load_tu_dataset, run_experiment, sweep_time_length, write_sweep_csv
from evokernel.augment import _episode_masks, _snapshot_draws
from evokernel.embedding import _wl_counts
from evokernel.heat import HEAT_METHODS
from evokernel.kernel import _prefix_distance_matrices

from .conftest import DATA_DIR

PINNED = DATA_DIR / "fingerprints.json"
SEED = 42
README_LENGTHS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
LONG_GRID_GRAPHS = 6


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _distances(graphs, cfg: ExperimentConfig):
    """The pipeline's distance matrix of ``graphs``, the dataset's first, under ``cfg``."""
    steps = len(cfg.time_grid())
    counts, sq = _wl_counts(graphs, cfg.metric_config(), _masks(graphs, cfg))
    return _prefix_distance_matrices(counts, sq, steps, [steps])[steps]


def _masks(graphs, cfg: ExperimentConfig) -> list:
    """The pipeline's episode masks of ``graphs``, the dataset's first, under ``cfg``: one call
    over all of them, as a run makes."""
    times = cfg.time_grid()
    draws = _snapshot_draws(cfg.seed, range(len(graphs)), [g.node_count for g in graphs], len(times))
    return _episode_masks(graphs, times, cfg.a, cfg.u0, list(draws), cfg.heat_method, cfg.cumulative)


def fingerprints(mutag_dir: Path, scratch: Path) -> dict:
    dataset = load_tu_dataset(mutag_dir, "MUTAG")
    content = [[g.node_count, g.edges, g.node_labels] for g in dataset.graphs], dataset.labels.tolist()
    cfg = ExperimentConfig(dataset_dir=str(mutag_dir), dataset_name="MUTAG", seed=SEED)

    masks = {}
    for cumulative in (False, True):
        for method in HEAT_METHODS:
            graph_masks = _masks(dataset.graphs, replace(cfg, heat_method=method, cumulative=cumulative))
            masks[f"{method}{'-cumulative' if cumulative else ''}"] = _sha(b"".join(m.tobytes() for m in graph_masks))

    csv = scratch / "curve.csv"
    reports = sweep_time_length(cfg, README_LENGTHS, dataset)
    write_sweep_csv(reports, csv)
    report = reports[-1]  # the default length: equal to run_experiment(cfg), as test_experiment checks
    auto_cfg = replace(cfg, cumulative=True, heat_method="auto")
    cumulative_auto = run_experiment(auto_cfg, dataset)
    return {
        "dataset": _sha(json.dumps(content).encode()),
        "episode_masks": masks,
        "distance_matrix": _sha(_distances(dataset.graphs, cfg).tobytes()),
        "long_grid_distance_matrix": {  # T = 201
            name: _sha(_distances(dataset.graphs[:LONG_GRID_GRAPHS], replace(c, time_interval=0.005)).tobytes())
            for name, c in (("default", cfg), ("cumulative_auto", auto_cfg))
        },
        "sweep_csv": _sha(csv.read_bytes()),
        "fold_accuracies": report.fold_accuracies,
        "confusion": report.confusion,
        "cumulative_auto": {
            "fold_accuracies": cumulative_auto.fold_accuracies,
            "confusion": cumulative_auto.confusion,
        },
    }


def test_mutag_fingerprints_are_pinned(mutag_dir, tmp_path):
    assert fingerprints(mutag_dir, tmp_path) == json.loads(PINNED.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        values = fingerprints(DATA_DIR / "MUTAG", Path(scratch))
    PINNED.write_text(json.dumps(values, indent=2) + "\n")
