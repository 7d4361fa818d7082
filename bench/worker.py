"""One benchmark workload in a fresh process.

``run.py`` starts this file with BLAS pinned to one thread and the checkout's
``src`` on ``PYTHONPATH``; it generates the inputs beforehand, so this process
only reads dataset files, the way the command line does.

    python3 bench/worker.py setup DATA_DIR NAME   # time import + first load
    python3 bench/worker.py job SPEC_JSON         # timed jobs or the traced run

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

# A run repeats its job at least this often, even past its time budget.
MIN_SAMPLES = 3


def setup_probe(data_dir: str, name: str) -> dict:
    start = time.perf_counter()
    import evokernel

    evokernel.load_tu_dataset(data_dir, name)
    return {"setup_s": time.perf_counter() - start}


def measure(seconds: float, once) -> list[float]:
    """Call ``once`` until the next call would end after ``seconds``.

    ``once`` returns how long it took; it runs at least MIN_SAMPLES times.
    Returns the durations.
    """
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(once())
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_SAMPLES and elapsed + statistics.median(durations) > seconds:
            return durations


class Job:
    """The untimed reference job and the checks every later job must pass."""

    def __init__(self, cfg, workload, work_dir: Path, classes: int):
        self.cfg = cfg
        self.lengths = workload.lengths
        self.min_accuracy = workload.min_accuracy
        self.chance = 1.0 / classes
        self.csv_path = work_dir / "sweep.csv"
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        self.reference = None

    def run(self):
        from evokernel import run_experiment, sweep_time_length

        if self.lengths is None:
            return [run_experiment(self.cfg)]
        return sweep_time_length(self.cfg, self.lengths)

    def fingerprint(self, reports) -> dict:
        from evokernel import write_sweep_csv

        canonical = "\n".join(r.canonical_json() for r in reports)
        out = {
            "canonical_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "accuracy": statistics.fmean(r.mean_accuracy for r in reports),
        }
        if self.lengths is not None:
            write_sweep_csv(reports, self.csv_path)
            out["csv_sha256"] = hashlib.sha256(self.csv_path.read_bytes()).hexdigest()
        return out

    def fail(self, message: str) -> None:
        """Record a failed check; the operation in progress counts as failed once."""
        self.failures.append(message)
        self.failed_ops.add(self.attempted)

    def timed(self):
        """Run, time and check one job; return (seconds, reports)."""
        self.attempted += 1
        start = time.perf_counter()
        reports = self.run()
        elapsed = time.perf_counter() - start
        fp = self.fingerprint(reports)
        if self.reference is None:
            self.reference = fp
            acc = fp["accuracy"]
            if acc <= self.chance or acc < self.min_accuracy:
                self.fail(f"accuracy {acc} fails the gate: above {self.chance}, at least {self.min_accuracy}")
        elif fp != self.reference:
            self.fail(f"job {self.attempted} output differs from the first job: {fp}")
        return elapsed, reports


def run_timed(job: Job, seconds: float) -> dict:
    job.timed()  # warm-up, also the reference output
    walls = measure(seconds, lambda: job.timed()[0])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": walls, "peak_rss_mb": rss_kb / 1024.0}


def run_configs(cfg, lengths) -> list:
    """The configuration of every run in one job: one, or one per sweep length."""
    if lengths is None:
        return [cfg]
    return [replace(cfg, time_length=float(t)) for t in lengths]


def run_traced(job: Job, seconds: float, spans_path: str) -> dict:
    import layers

    missing = layers.missing_calls()
    if missing:
        job.fail(f"traced public functions are gone: {missing}")
        return {}
    _, reports = job.timed()  # warm-up, also the reference output
    expected_folds = [r.fold_accuracies for r in reports]
    configs = run_configs(job.cfg, job.lengths)
    tracer = layers.Tracer()
    untraced, traced, per_job = [], [], []

    def once():
        elapsed, _ = job.timed()
        untraced.append(elapsed)
        job_id = len(traced)
        job.attempted += 1
        start = time.perf_counter()
        folds, episodes = layers.traced_job(tracer, job_id, configs)
        traced.append(time.perf_counter() - start)
        if folds != expected_folds:
            job.fail(f"traced job {job_id} fold accuracies {folds} differ from {expected_folds}")
        if tracer.counts[job_id] != tracer.counts[0]:
            job.fail(f"traced job {job_id} counts differ from traced job 0")
        if job_id == 0:
            for cfg, composed in zip(configs, episodes):
                if not layers.episodes_match(composed, cfg):
                    job.fail(f"traced episodes differ from generate_episode at length {cfg.time_length}")
        per_job.append(tracer.layer_metrics(job_id))
        return untraced[-1] + traced[-1]

    measure(seconds, once)
    tracer.write_jsonl(spans_path)
    out = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"layers": out, "untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans)}


def job_main(spec: dict) -> dict:
    import evokernel

    dataset = evokernel.load_tu_dataset(spec["data_dir"], spec["name"])
    if Path(spec["src"]).resolve() not in Path(evokernel.__file__).resolve().parents:
        raise SystemExit(f"evokernel was imported from {evokernel.__file__}, not from {spec['src']}")

    from workloads import EXPERIMENT_SEED, WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    cfg = evokernel.ExperimentConfig(
        dataset_dir=spec["data_dir"],
        dataset_name=spec["name"],
        seed=EXPERIMENT_SEED,
        **workload.config,
    )
    graphs = len(dataset.graphs)
    steps = [len(c.time_grid()) for c in run_configs(cfg, workload.lengths)]
    result = {
        "sizes": {
            "graphs": graphs,
            "classes": dataset.class_count,
            "mean_nodes": dataset.mean_nodes,
            "mean_edges": dataset.mean_edges,
            "T": steps,
            "pairs_per_run": graphs * (graphs - 1) // 2,
        },
    }
    job = Job(cfg, workload, Path(spec["work_dir"]), dataset.class_count)
    try:
        if spec["trace"]:
            result.update(run_traced(job, spec["seconds"], spec["spans_path"]))
        else:
            result.update(run_timed(job, spec["seconds"]))
    except Exception as exc:  # any program error is a failed operation, reported, not raised
        job.fail(f"{type(exc).__name__}: {exc}")
    if job.reference is not None:
        result.update(job.reference)
    failed = len(job.failed_ops)
    result.update(attempted=max(job.attempted, failed, 1), failed=failed, failures=job.failures)
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        out = setup_probe(argv[1], argv[2])
    elif argv[:1] == ["job"] and len(argv) == 2:
        out = job_main(json.loads(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
