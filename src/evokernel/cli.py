"""Command-line entry points: a single full run and a time-length sweep."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import EvoKernelError
from .experiment import ExperimentConfig, _stage, run_experiment, sweep_time_length, write_sweep_csv
from .heat import HEAT_METHODS, METHOD_TAYLOR2
from .kernel import PSD_REPAIRS

# --hk spells each heat method by its name, except taylor2 as "taylor".
_HK_CHOICES = {"taylor" if m == METHOD_TAYLOR2 else m: m for m in HEAT_METHODS}


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):  # a required flag has no default to print
        return action.help if action.required else super()._get_help_string(action)


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags of ``ExperimentConfig``: each flag's dest is its field, and its default the field's."""
    parser.add_argument("--dataset", dest="dataset_dir", required=True, help="directory holding the benchmark text files")
    parser.add_argument("--name", dest="dataset_name", required=True, help="dataset name, e.g. MUTAG")
    parser.add_argument("--time-length", type=float, help="episode time length")
    parser.add_argument("--time-interval", type=float, help="time grid step")
    parser.add_argument("--a", type=float, help="energy weight")
    parser.add_argument("--u0", type=float, help="initial heat per node")
    parser.add_argument("--wl-iters", dest="wl_iterations", type=int, help="WL refinement rounds")
    parser.add_argument("--emb-dim", dest="embedding_dim", type=int, help="WL embedding buckets")
    parser.add_argument("--gamma-scale", type=float, help="kernel bandwidth over the median distance")
    parser.add_argument("--psd", dest="psd_repair", choices=PSD_REPAIRS, help="kernel PSD repair")
    parser.add_argument("--c", type=float, help="SVM regularization")
    parser.add_argument("--folds", type=int, help="cross-validation folds")
    parser.add_argument("--seed", type=int, help="seed of the drops and the folds")
    parser.add_argument("--cumulative", action="store_true", help="drop from the previous snapshot instead of the source graph")
    parser.add_argument("--hk", dest="heat_method", choices=sorted(_HK_CHOICES), help="heat-kernel method")
    parser.set_defaults(**ExperimentConfig().to_dict())


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    values = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{**values, "heat_method": _HK_CHOICES[args.heat_method]})


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

    run_parser = sub.add_parser("run", help="one cross-validated run", formatter_class=_HelpFormatter)
    _add_common(run_parser)
    run_parser.add_argument("--out", help="write the JSON report here")

    sweep_parser = sub.add_parser("sweep", help="sweep the episode time length", formatter_class=_HelpFormatter)
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
            with _stage("config"):
                lengths = [float(x) for x in args.lengths.split(",") if x.strip()]
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
