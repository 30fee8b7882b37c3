"""votestack benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload blobs-allfuse --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. Set-up runs five times and
its median is reported. Operations then run one after another for about
`--seconds` (see `keep_going`).

Workloads: blobs-allfuse, spam-wide and sweep-par (see workloads.py).
`--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
reports the per-layer metrics: it runs the MLP micro section and the import
timing, then alternates untraced and traced operations, so the tracing
overhead is measured within the same run; it also prints the end-to-end
metrics of its untraced operations. Spans are written to
`.bench_out/` at the end. Every operation's outputs are checked, and every
operation must produce the same determinism digest; a failed check fails
the operation. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "filtered_acc": "ratio", "plurality_acc": "ratio",
}

PER_LAYER_UNITS = {
    "mlp.train_s": "s", "mlp.train_steps": "count", "mlp.step_ms": "ms",
    "mlp.train_gflops_computed": "GFLOP/s", "mlp.forward_ms": "ms", "mlp.grad_ms": "ms",
    "mlp.update_ms": "ms", "mlp.train_p50_s": "s", "mlp.train_max_s": "s",
    "mlp.predict_s": "s", "mlp.predict_rows_per_s": "rows/s", "mlp.save_s": "s",
    "boosting.fit_s": "s", "boosting.fit_calls": "count", "boosting.fit_max_s": "s",
    "boosting.fit_rows": "count", "boosting.trees": "count", "boosting.tree_ms": "ms",
    "boosting.predict_s": "s", "boosting.save_s": "s",
    "tabular.load_csv_s": "s", "tabular.load_csv_calls": "count",
    "tabular.load_csv_mb_per_s": "MB/s", "tabular.prepare_s": "s",
    "diversify.materialize_s": "s",
    "fusion.fit_meta_self_s": "s", "fusion.fit_filtered_self_s": "s",
    "fusion.apply_filtered_s": "s", "fusion.vote_s": "s",
    "fusion.difficult_frac": "ratio", "fusion.residual_frac": "ratio",
    "harness.run_self_s": "s", "harness.emit_s": "s", "harness.artifact_mb": "MB",
    "cli.import_s": "s", "trace.overhead_s": "s",
}


def log(line: str = "") -> None:
    print(line, flush=True)


def environment() -> dict:
    """Machine and library facts that a timing depends on; sets none of them."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var, "unset") for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
    }


def keep_going(start: float, seconds: float, walls: list[float]) -> bool:
    """Start another operation if, by the median, over half of it fits in time.

    Rounding the operation count this way keeps a run within half an
    operation of `seconds` on either side.
    """
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(walls) / 2 < seconds


class Operations:
    """Attempted and failed operations, plus the digest every one must match."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.results = []

    def run(self, runner, **kwargs):
        from workloads import OpResult

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = runner.run_op(**kwargs)
        except Exception:
            result = OpResult(wall_s=time.perf_counter() - t0, rss_mb=0.0,
                              problems=[traceback.format_exc()])
        if result.digest is not None:
            if self.digest is None:
                self.digest = result.digest
            elif result.digest != self.digest:
                result.problems.append(
                    f"digest {result.digest} differs from the first operation's {self.digest}")
        if result.problems:
            self.failed += 1
            for problem in result.problems:
                print(f"operation {self.attempted} failed: {problem}", file=sys.stderr)
        self.results.append(result)
        return result


def measure_end_to_end(runner, seconds: float, ops: Operations) -> list:
    start = time.perf_counter()
    while True:
        ops.run(runner)
        if not keep_going(start, seconds, [r.wall_s for r in ops.results]):
            break
    return ops.results


def end_to_end(setup_times: list[float], results: list) -> dict[str, float]:
    """End-to-end metrics from untraced operations."""
    walls = [r.wall_s for r in results]
    ok = [r for r in results if not r.problems] or results
    log(f"untraced operations: {len(walls)}; wall_s each: "
        f"{' '.join(f'{w:.3f}' for w in walls)}")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r.rss_mb for r in results),
        "filtered_acc": ok[0].filtered_acc,
        "plurality_acc": ok[0].plurality_acc,
    }


def measure_per_layer(runner, seconds: float, ops: Operations, spans_path: Path):
    import micro
    import spans
    from workloads import IMPORT_ARGV, spawn

    w = runner.w
    start = time.perf_counter()
    metrics = micro.mlp_micro(w.layer_sizes, w.batch_size, w.learning_rate, w.momentum,
                              runner.run_seed)
    imports = [spawn(IMPORT_ARGV, runner.work, runner.env)[0]
               for _ in range(IMPORT_REPEATS)]
    import_s = statistics.median(imports)
    metrics["cli.import_s"] = import_s
    traced_import_s = import_s if w.command else 0.0
    log(f"micro and import: {time.perf_counter() - start:.2f} s")

    tracer = spans.Tracer()
    untraced_ops, traced_ops = [], []
    while True:
        untraced_ops.append(ops.run(runner))
        op = tracer.op = ops.attempted + 1
        with spans.instrument(tracer):
            result = ops.run(runner, tracer=tracer, import_s=traced_import_s)
        tracer.op = None
        traced_ops.append((op, result))
        if not keep_going(start, seconds, [r.wall_s for r in ops.results]):
            break
    tracer.dump(spans_path)
    untraced = [r.wall_s for r in untraced_ops]
    traced = [r.wall_s for _, r in traced_ops]

    per_op = []
    for op, result in traced_ops:
        layer = spans.op_layer_metrics(tracer.spans, op)
        layer["harness.artifact_mb"] = result.artifact_mb
        per_op.append(layer)
    for key in per_op[0]:
        metrics[key] = statistics.median(m[key] for m in per_op)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    report_trace(tracer, traced_ops[-1][0], untraced, traced_import_s, metrics)
    return {k: metrics[k] for k in PER_LAYER_UNITS}, untraced_ops


def report_trace(tracer, op: int, untraced: list[float], import_s: float,
                 metrics: dict) -> None:
    import spans

    table = spans.self_time_table(tracer.spans, op)
    log(f"layer self time of traced operation {op}, per thread:")
    for (thread, name), t in sorted(table.items(), key=lambda kv: (kv[0][0], -kv[1])):
        log(f"  thread {thread}  {name:<32} {t:9.4f} s")
    op_spans = [s for s in tracer.spans if s.op == op]
    main = sum(t for (thread, _), t in table.items() if thread == 0)
    wait = spans.worker_wait(op_spans)
    log(f"main thread waited {wait:.4f} s on worker threads (inside harness self time)")
    log(f"accounting: main-thread layer self times {main:.4f} s + import {import_s:.4f} s "
        f"= {main + import_s:.4f} s traced; untraced median {statistics.median(untraced):.4f} s; "
        f"trace.overhead_s {metrics['trace.overhead_s']:.4f} s")
    busiest = max(("mlp.train_s", "mlp.predict_s", "boosting.fit_s", "tabular.load_csv_s",
                   "harness.run_self_s", "harness.emit_s", "cli.import_s"),
                  key=lambda k: metrics[k])
    log(f"largest layer time: {busiest} = {metrics[busiest]:.4f} s")
    for name, num, den in (("fusion.fit_filtered", "difficult", "train_rows"),
                           ("fusion.apply_filtered", "residual", "test_rows")):
        a = sum(s.notes.get(num, 0) for s in op_spans if s.name == name)
        b = sum(s.notes.get(den, 0) for s in op_spans if s.name == name)
        log(f"{name}: {num} {a} of {b} {den}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "votestack" / "__init__.py").is_file():
        print(f"error: no votestack sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import votestack

    if Path(votestack.__file__).resolve().parent != SRC / "votestack":
        print(f"error: imported votestack from {votestack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    log("environment: " + json.dumps(environment(), sort_keys=True))
    log(f"workload {args.workload}: data seed {args.seed}, run seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}")
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload], args.seed, work, SRC)
    ops = Operations()
    try:
        setup_times = [runner.setup() for _ in range(SETUP_REPEATS)]
        log(f"set-up: {' '.join(f'{t:.4f}' for t in setup_times)} s")
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            layer, untraced = measure_per_layer(runner, args.seconds, ops, spans_path)
        else:
            untraced = measure_end_to_end(runner, args.seconds, ops)
        metrics = end_to_end(setup_times, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log(f"digest: {ops.digest}")
    log(f"{'error_rate':<28} {ops.failed / ops.attempted:14.6f} ratio "
        f"({ops.failed} of {ops.attempted} operations failed)")
    for name, value in metrics.items():
        log(f"{name:<28} {value:14.6f} {END_TO_END_UNITS[name]}")
    units = END_TO_END_UNITS
    if args.trace:
        for name, value in layer.items():
            log(f"{name:<28} {value:14.6f} {PER_LAYER_UNITS[name]}")
        metrics, units = layer, PER_LAYER_UNITS
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
