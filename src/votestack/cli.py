"""Command-line interface.

Subcommands: `run` executes one experiment from a config file, `sweep`
repeats it over ensemble sizes 1..K. Exit code 0 is success; an error
exits with the code of its type, by the rule in `errors`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __about__
from .errors import ConfigError, DataError, TrainingDivergenceError
from .harness import (STRATEGY_FILTERED, ExperimentConfig, emit_report, emit_sweep,
                      run_experiment, sweep)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3
# A ContractError is a bug and is left out, so it keeps its traceback.
_EXIT_CODES = {ConfigError: EXIT_CONFIG, DataError: EXIT_DATA,
               TrainingDivergenceError: EXIT_DIVERGENCE}


def _load_config(args) -> ExperimentConfig:
    """The config file with the command-line overrides applied; it must name
    an output directory."""
    overrides = {"seed": args.seed, "output_dir": args.out, "workers": args.workers}
    config = replace(ExperimentConfig.from_file(args.config),
                     **{k: v for k, v in overrides.items() if v is not None})
    if config.output_dir is None:
        raise ConfigError("no output directory: set [run] output_dir or pass --out")
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    paths = emit_report(report, config.output_dir)
    print(f"dataset: {report.dataset_label}  "
          f"train {report.n_train} / test {report.n_test}  seed {report.seed}")
    print(f"mean learner accuracy: {report.mean_accuracy:.4f}")
    for name, acc in report.strategy_accuracies.items():
        print(f"  {name:<17} {acc:.4f}")
    if report.rejected_count:
        print(f"strict majority rejected {report.rejected_count} sample(s)")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"artifacts written to {paths['report'].parent}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    reports = sweep(config, max_size=args.max_size)
    paths = emit_sweep(reports, config.output_dir)
    print("size  filtered  mean_individual")
    for r in reports:
        print(f"{r.n_learners:>4}  {r.strategy_accuracies[STRATEGY_FILTERED]:.4f}    "
              f"{r.mean_accuracy:.4f}")
    print(f"artifacts written to {paths['sweep_csv'].parent}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=__about__.TOOL_NAME,
        description="Ensembles of small neural networks with vote-filtered "
                    "meta-learner fusion over tabular data.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__about__.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the config file")
    common.add_argument("--seed", type=int, default=None, help="override [run] seed")
    common.add_argument("--out", default=None, help="override [run] output_dir")
    common.add_argument("--workers", type=int, default=None,
                        help="override [run] workers (parallel learner training)")

    sub.add_parser("run", parents=[common],
                   help="run one experiment from a config file").set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common], help="run at every ensemble size 1..K")
    sweep_p.add_argument("--max-size", type=int, default=8,
                         help="largest ensemble size (default 8)")
    sweep_p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
