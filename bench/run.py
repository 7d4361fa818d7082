"""evokernel benchmark: one workload at one seed, timed or traced.

    python3 bench/run.py --workload mutag_run --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

Workloads, metrics and the run length are listed in ``BENCHMARK.json`` at the
root of the checkout; ``bench/workloads.py`` says why each workload exists.

A run writes its inputs as TU text files under ``.bench_work/`` (removed at
the end), then starts fresh processes with BLAS pinned to one thread and the
checkout's ``src`` on ``PYTHONPATH``:

* ``SETUP_PROBES`` processes that each time ``import evokernel`` plus the first
  load of the workload's files; ``setup_s`` is their median;
* one workload process that runs one untimed warm-up job, then repeats the
  job for ``--seconds`` and reports the median wall time, its peak RSS and
  the accuracy (``--trace 0``), or alternates untimed and traced jobs and
  reports the per-layer metrics (``--trace 1``). Traced spans are written to
  ``.bench_out/``.

Every job's output is checked; a failed check is a failed operation. The last
line of standard output is the result as one JSON object; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import file_hashes, write_subset, write_synthetic
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MUTAG = ROOT / "tests" / "data" / "MUTAG"
SETUP_PROBES = 5
# Everything a run starts must end within this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_inputs(workload, seed: int, work: Path) -> tuple[Path, str, dict]:
    if workload.synth is not None:
        return work, "SYNTH", write_synthetic(work, "SYNTH", seed, workload.synth)
    if workload.mutag_stride == 1:
        return MUTAG, "MUTAG", {"source": "MUTAG", "sha256": file_hashes(MUTAG, "MUTAG")}
    record = write_subset(MUTAG, "MUTAG", workload.mutag_stride, work, "MUTAGSUB")
    return work, "MUTAGSUB", record


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EVOKERNEL_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def child(args: list[str], env: dict, deadline: float) -> tuple[dict | None, str]:
    """Run the worker to completion; return its JSON result or an error."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"worker {args[0]} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, f"worker {args[0]} printed no result: {lines[-1][:200]}"


def run_workload(name: str, seed: int, seconds: float, trace: int, wanted: list[dict]) -> dict:
    """Run one workload, print its metrics and details, return the result object."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    env = child_env()
    probes, errors = [], []
    result = None
    try:
        work.mkdir(parents=True)
        if trace:
            out_dir.mkdir(exist_ok=True)
        data_dir, dataset_name, inputs = prepare_inputs(workload, seed, work)
        if not trace:
            for _ in range(SETUP_PROBES):
                out, err = child(["setup", str(data_dir), dataset_name], env, deadline)
                if out:
                    probes.append(out["setup_s"])
                else:
                    errors.append(err)
        spec = {
            "workload": name,
            "data_dir": str(data_dir),
            "name": dataset_name,
            "src": str(SRC),
            "seconds": seconds,
            "trace": trace,
            "work_dir": str(work),
            "spans_path": str(spans_path),
        }
        result, err = child(["job", json.dumps(spec)], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if result is None:
        errors.append(err)
        result = {"attempted": 1, "failed": 1}
    errors.extend(result.get("failures", []))

    if trace:
        values = result.get("layers", {})
    else:
        values = {
            "wall_s": statistics.median(result["wall_s"]) if result.get("wall_s") else None,
            "setup_s": statistics.median(probes) if probes else None,
            "peak_rss_mb": result.get("peak_rss_mb"),
            "accuracy": result.get("accuracy"),
        }
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    probes_failed = 0 if trace else SETUP_PROBES - len(probes)
    attempted = result["attempted"] + len(probes) + probes_failed
    failed = result["failed"] + probes_failed

    print(f"workload {name}  seed {seed}  trace {trace}  seconds {seconds}")
    print(f"why: {workload.why}")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:28s} {metric['value']:.6g} {metric['unit']}")
    details = {
        "inputs": inputs,
        "sizes": result.get("sizes"),
        "canonical_sha256": result.get("canonical_sha256"),
        "csv_sha256": result.get("csv_sha256"),
        "wall_s_samples": result.get("wall_s"),
        "setup_s_samples": probes,
        "untraced_s": result.get("untraced_s"),
        "traced_s": result.get("traced_s"),
        "spans": str(spans_path.relative_to(ROOT)) if trace and spans_path.exists() else None,
        "nproc": os.cpu_count(),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "errors": errors,
    }
    print("details: " + json.dumps(details))
    return {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "evokernel" / "__init__.py").is_file() or not (MUTAG / "MUTAG_A.txt").is_file():
        print(f"bench: {ROOT} holds no evokernel checkout (src/evokernel, tests/data/MUTAG)", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, seconds, args.trace, wanted) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
