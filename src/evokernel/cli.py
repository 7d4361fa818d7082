"""Command-line entry points: a single full run and a time-length sweep."""

from __future__ import annotations

import argparse
import sys

from .errors import EvoKernelError
from .experiment import ExperimentConfig, _stage, run_experiment, sweep_time_length, write_sweep_csv

_HK_CHOICES = {"exact": "exact", "taylor": "taylor2", "fiedler": "fiedler", "auto": "auto"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="directory holding the benchmark text files")
    parser.add_argument("--name", required=True, help="dataset name, e.g. MUTAG")
    parser.add_argument("--time-length", type=float, default=1.0)
    parser.add_argument("--time-interval", type=float, default=0.1)
    parser.add_argument("--a", type=float, default=-2.0, help="energy weight")
    parser.add_argument("--b", type=float, default=-2.0, help="energy bias")
    parser.add_argument("--u0", type=float, default=1.0, help="initial heat per node")
    parser.add_argument("--wl-iters", type=int, default=3)
    parser.add_argument("--emb-dim", type=int, default=1024)
    parser.add_argument("--gamma-scale", type=float, default=1.0)
    parser.add_argument("--psd", choices=["none", "clip"], default="clip")
    parser.add_argument("--c", type=float, default=10.0, help="SVM regularization")
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cumulative", action="store_true", help="drop from the previous snapshot instead of the source graph")
    parser.add_argument("--hk", choices=sorted(_HK_CHOICES), default="exact", help="heat-kernel method")


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        dataset_dir=args.dataset,
        dataset_name=args.name,
        time_length=args.time_length,
        time_interval=args.time_interval,
        a=args.a,
        b=args.b,
        u0=args.u0,
        wl_iterations=args.wl_iters,
        embedding_dim=args.emb_dim,
        gamma_scale=args.gamma_scale,
        psd_repair=args.psd,
        c=args.c,
        folds=args.folds,
        seed=args.seed,
        cumulative=args.cumulative,
        heat_method=_HK_CHOICES[args.hk],
    )


def _print_report(report) -> None:
    cfg = report.config
    print(f"dataset {cfg['dataset_name']}: {cfg['dataset_graphs']} graphs, "
          f"{cfg['dataset_classes']} classes, grid of {len(cfg['times'])} time points")
    for k, acc in enumerate(report.fold_accuracies):
        print(f"  fold {k + 1:2d}  accuracy {acc:.4f}")
    print(f"mean accuracy {report.mean_accuracy:.4f}  std {report.std_accuracy:.4f}")
    stages = "  ".join(f"{name} {seconds:.2f}s" for name, seconds in report.timings.items())
    print(f"stage timings: {stages}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evokernel",
        description="Graph classification through heat-diffusion episodes and a time-warped episode kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="one cross-validated run")
    _add_common(run_parser)
    run_parser.add_argument("--out", help="write the JSON report here")

    sweep_parser = sub.add_parser("sweep", help="sweep the episode time length")
    _add_common(sweep_parser)
    sweep_parser.add_argument("--lengths", required=True, help="comma-separated ascending time lengths")
    sweep_parser.add_argument("--out", required=True, help="write the (length, mean, std) CSV here")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            report = run_experiment(_config_from(args))
            _print_report(report)
            if args.out:
                with _stage("output"), open(args.out, "w") as fh:
                    fh.write(report.to_json() + "\n")
                print(f"report written to {args.out}")
        else:
            lengths = [x for x in args.lengths.split(",") if x.strip()]
            reports = sweep_time_length(_config_from(args), lengths)
            for report in reports:
                print(f"T={report.config['time_length']:g}  mean {report.mean_accuracy:.4f}  "
                      f"std {report.std_accuracy:.4f}")
            with _stage("output"):
                write_sweep_csv(reports, args.out)
            print(f"sweep curve written to {args.out}")
        return 0
    except EvoKernelError as exc:
        print(f"evokernel: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
