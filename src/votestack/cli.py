"""Command-line interface.

Subcommands: `run` executes one experiment from a config file, `sweep`
repeats it over ensemble sizes 1..K, `selfcheck` runs fast built-in
invariant checks with no data files. Exit code 0 is success; an error
exits with the code of its type, by the rule in `errors`.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from . import __about__, fusion, mlp
from .errors import ConfigError, DataError, TrainingDivergenceError
from .harness import ExperimentConfig, emit_report, emit_sweep, run_experiment, sweep
from .seeding import child_rng

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
    report = sweep(config, max_size=args.max_size)
    paths = emit_sweep(report, config.output_dir)
    print("size  filtered  mean_individual")
    for row in report.rows:
        print(f"{row.size:>4}  {row.filtered_accuracy:.4f}    "
              f"{row.mean_individual_accuracy:.4f}")
    print(f"artifacts written to {paths['sweep_csv'].parent}")
    return EXIT_OK


def _check_voting_oracle() -> str | None:
    """Compare both voting rules to brute-force counting, n=3 learners, C=3."""
    combos = list(itertools.product(range(3), repeat=3))
    probs = np.zeros((3, len(combos), 3))
    for k, votes in enumerate(combos):
        for j, v in enumerate(votes):
            probs[j, k, v] = 1.0
    pm = fusion.PredictionMatrix(probs)
    plurality = fusion.plurality_vote(pm).decisions
    majority = fusion.majority_vote(pm).decisions
    for k, votes in enumerate(combos):
        counts = Counter(votes)
        best = max(counts.values())
        expected = min(label for label, c in counts.items() if c == best)
        if plurality[k] != expected:
            return f"plurality mismatch on votes {votes}"
        expected_maj = expected if best * 2 > 3 else fusion.REJECTED
        if majority[k] != expected_maj:
            return f"majority mismatch on votes {votes}"
    return None


def _check_gradients(seed: int) -> str | None:
    """Central-difference check of every gradient coordinate on a tiny net.

    The loss is non-differentiable exactly at rectifier kinks, so the
    evaluation point is redrawn (biases included, since zero biases can
    land a fully-dead sample exactly on a kink) until every hidden
    pre-activation clears the finite-difference step by a wide margin.
    """
    rng = child_rng(seed, "selfcheck", "grad")
    config = mlp.MlpConfig(layer_sizes=(4, 2, 3, 2), seed=seed)
    for _ in range(16):
        model = mlp.init(config)
        for b in model.biases:
            b[:] = rng.normal(scale=0.5, size=b.shape)
        X = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, size=6)
        pre, _, _ = mlp._forward_cached(model, X)
        if min(np.abs(z).min() for z in pre[:-1]) > 1e-3:
            break
    else:
        return "no kink-free evaluation point found"
    grad_w, grad_b = mlp.gradients(model, X, y)
    step = 1e-5
    for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for arr, grad in zip(params, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                hi = mlp.loss(model, X, y)
                flat[i] = keep - step
                lo = mlp.loss(model, X, y)
                flat[i] = keep
                numeric = (hi - lo) / (2 * step)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                if abs(numeric - gflat[i]) / denom > 1e-4:
                    return (f"gradient mismatch: analytic {gflat[i]:.8g} "
                            f"vs numeric {numeric:.8g}")
    return None


def _check_variance_ratio(seed: int) -> str | None:
    """Independent unit-variance learners must show roughly 1/n ratio."""
    rng = child_rng(seed, "selfcheck", "variance")
    outputs = rng.normal(size=(7, 10_000))
    ratio = fusion.variance_report(outputs).ratio
    lo, hi = (1 / 7) * 0.85, (1 / 7) * 1.15
    if not (lo <= ratio <= hi):
        return f"variance ratio {ratio:.5f} outside [{lo:.5f}, {hi:.5f}]"
    return None


def _cmd_selfcheck(args) -> int:
    checks = (
        ("voting rules vs brute-force count", lambda: _check_voting_oracle()),
        ("analytic gradients vs finite differences",
         lambda: _check_gradients(args.seed)),
        ("ensemble variance ratio near 1/n",
         lambda: _check_variance_ratio(args.seed)),
    )
    failures = 0
    for name, check in checks:
        problem = check()
        if problem is None:
            print(f"ok: {name}")
        else:
            failures += 1
            print(f"FAIL: {name}: {problem}", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_CONFIG


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

    check_p = sub.add_parser("selfcheck", help="run fast built-in invariant checks")
    check_p.add_argument("--seed", type=int, default=0,
                         help="seed for the randomized checks")
    check_p.set_defaults(func=_cmd_selfcheck)
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
