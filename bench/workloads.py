"""The benchmark's workloads: which inputs, which configuration, which gates.

Every workload uses the experiment seed 42 of the acceptance gates. The
``--seed`` of a benchmark run drives only the synthetic generator; the two
MUTAG workloads read fixed data, so their inputs are the same for every seed.
Sizes are chosen so that one job takes a few seconds on one core, which lets a
run repeat it several times and report a median.

There is no workload of many small graphs: at a size whose job fits a run it
has about as many pairs and as large a cross-distance block as ``mutag_run``,
and three workloads leave each run long enough for steady medians on a shared
two-core machine, whose speed drifts by tens of percent from one minute to
the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from inputs import SynthSpec

EXPERIMENT_SEED = 42
SWEEP_LENGTHS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # ExperimentConfig fields other than the dataset location.
    config: dict = field(default_factory=dict)
    # None reads the vendored MUTAG files.
    synth: SynthSpec | None = None
    # Keep every k-th MUTAG graph (1 keeps all of them).
    mutag_stride: int = 1
    # None runs one run_experiment; otherwise one sweep_time_length.
    lengths: tuple[float, ...] | None = None
    # Accuracy gate on top of "strictly above chance".
    min_accuracy: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mutag_run",
            why="Reference run and acceptance gate 8: vendored MUTAG, defaults, seed 42; "
            "188 graphs, 17.9 mean nodes, T=11, 17578 pairs. Alignment about half, WL, heat, SMO the rest.",
            min_accuracy=0.80,
        ),
        Workload(
            name="mutag_sweep",
            why="Paper's main curve: sweep over lengths 0.1..1.0 on every 3rd MUTAG graph "
            "(63 graphs, T=2..11, 1953 pairs each). Only workload whose jobs share work.",
            mutag_stride=3,
            lengths=SWEEP_LENGTHS,
        ),
        Workload(
            name="synth_large",
            why="45 synthetic graphs of 120-240 nodes, 3 classes, cumulative, auto heat, T=11, "
            "990 pairs: eigh and WL dominate, 3-class SMO; bypasses alignment.",
            config={"cumulative": True, "heat_method": "auto"},
            synth=SynthSpec(graphs=45, classes=3, min_nodes=120, max_nodes=240, label_bias=0.15),
        ),
    )
}
