"""The benchmark workloads and how one operation of each runs.

Every workload is a closed loop: one operation at a time from a single
process. Its inputs come from the seed alone: the data seed feeds the
blob generator and the run seed is the experiment's master seed.

- blobs-allfuse: in-process `run_experiment`, all six strategies, no output
  directory. Boosting-heavy (the plain meta-learner fits on every training
  row); no CSV, no artifacts, no interpreter start.
- spam-wide: `votestack run` subprocess with the paper-default 1200/800
  network on a spam-shaped CSV. MLP-heavy on the BLAS-threaded path, and
  the only workload that writes large model files. The narrow, nearly
  spherical geometry keeps about a seventh of the test rows contentious,
  so vote filtering does route samples to the meta-learner.
- sweep-par: `votestack sweep --max-size 8 --workers 2` subprocess on a CSV
  of the blobs-allfuse data. The only workload on the worker-thread path;
  it also reloads the CSV once per size and fits one small residual
  meta-learner per size. It is run by hand, not listed in BENCHMARK.json:
  two workers with two BLAS threads each on a two-core machine made its
  per-run median swing by more than the largest allowed bound.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from votestack import cli, harness
from votestack.boosting import BoostConfig
from votestack.harness import ALL_STRATEGIES, ExperimentConfig
from votestack.synthetic import gaussian_blobs
from votestack.tabular import save_csv

import checks

# Longest a single CLI operation may take before it is killed and failed.
OP_TIMEOUT_S = 150

# Interpreter start plus package import: what every CLI operation pays first.
IMPORT_ARGV = [sys.executable, "-c", "import votestack.cli"]

CLI_CONFIG = """\
[dataset]
path = data.csv

[ensemble]
n_learners = {n_learners}
strategies = {strategies}

[mlp]
hidden_sizes = {hidden}
epochs = {epochs}
batch_size = {batch_size}
learning_rate = {learning_rate}
momentum = {momentum}

[run]
seed = {seed}
workers = {workers}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    data_shape: tuple[int, int, int]
    hidden: tuple[int, ...]
    epochs: int
    batch_size: int
    strategies: tuple[str, ...]
    command: str | None
    workers: int = 1
    n_learners: int = 7
    max_size: int = 8
    learning_rate: float = 0.01
    momentum: float = 0.9
    data_kwargs: dict = field(default_factory=dict)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.data_shape[1], *self.hidden, self.data_shape[2])


WORKLOADS = {w.name: w for w in (
    Workload("blobs-allfuse", (3000, 20, 3), hidden=(128, 64), epochs=25,
             batch_size=512, strategies=ALL_STRATEGIES, command=None),
    Workload("spam-wide", (4601, 57, 2), hidden=(1200, 800), epochs=1,
             batch_size=32, strategies=("plurality", "filtered"), command="run",
             data_kwargs={"center_spread": 0.25, "anisotropy": 0.1}),
    Workload("sweep-par", (3000, 20, 3), hidden=(128, 64), epochs=25,
             batch_size=512, strategies=("plurality", "filtered"), command="sweep",
             workers=2),
)}


@dataclass
class OpResult:
    wall_s: float
    rss_mb: float
    digest: str | None = None
    plurality_acc: float = 0.0
    filtered_acc: float = 0.0
    artifact_mb: float = 0.0
    problems: list[str] = field(default_factory=list)


def spawn(argv: list[str], cwd: Path, env: dict) -> tuple[float, float, int]:
    """Run a child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(cwd / "child.out", "wb") as out, open(cwd / "child.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


class Runner:
    """One workload at one seed inside a private work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, src: Path):
        self.w = workload
        self.data_seed = seed
        self.run_seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.dataset = None
        self.config = None

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Generate inputs and warm up; returns the seconds it took."""
        t0 = time.perf_counter()
        n, f, c = self.w.data_shape
        self.dataset = gaussian_blobs(n, f, c, seed=self.data_seed, **self.w.data_kwargs)
        self.work.mkdir(parents=True, exist_ok=True)
        if self.w.command is None:
            self.config = ExperimentConfig(
                n_learners=self.w.n_learners, strategies=self.w.strategies,
                hidden_sizes=self.w.hidden, epochs=self.w.epochs,
                batch_size=self.w.batch_size, learning_rate=self.w.learning_rate,
                momentum=self.w.momentum, seed=self.run_seed, workers=self.w.workers)
            # Warm-up: a two-learner, five-round run through every code path of
            # the operation; a smaller one left the first operation slower.
            warm = replace(self.config, n_learners=2, boost=BoostConfig(rounds=5))
            harness.run_experiment(warm, dataset=self.dataset)
        else:
            save_csv(self.dataset, self.work / "data.csv")
            (self.work / "config.ini").write_text(CLI_CONFIG.format(
                n_learners=self.w.n_learners, strategies=", ".join(self.w.strategies),
                hidden=" ".join(map(str, self.w.hidden)), epochs=self.w.epochs,
                batch_size=self.w.batch_size, learning_rate=self.w.learning_rate,
                momentum=self.w.momentum, seed=self.run_seed, workers=self.w.workers,
            ), encoding="utf-8")
            # Warm-up: interpreter start and package import, as each operation does.
            _, _, code = spawn(IMPORT_ARGV, self.work, self.env)
            if code != 0:
                raise RuntimeError(f"importing votestack.cli failed with exit code {code}; "
                                   f"see {self.work / 'child.err'}")
        return time.perf_counter() - t0

    def cli_argv(self) -> list[str]:
        argv = [self.w.command, "--config", "config.ini", "--out", "out"]
        if self.w.command == "sweep":
            argv += ["--max-size", str(self.w.max_size), "--workers", str(self.w.workers)]
        return argv

    # -- operations -----------------------------------------------------

    def run_op(self, tracer=None, import_s: float = 0.0) -> OpResult:
        """One operation; traced when `tracer` is given (spans already installed).

        A traced CLI operation calls `votestack.cli.main` in-process; its wall
        time adds `import_s`, the measured interpreter start plus import, so
        that it compares with an untraced subprocess.
        """
        if self.w.command is None:
            return self._inprocess_op()
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if tracer is None:
            wall, rss, code = spawn([sys.executable, "-m", "votestack.cli", *self.cli_argv()],
                                    self.work, self.env)
        else:
            main = tracer.wrap("cli.main", cli.main)
            cwd = os.getcwd()
            os.chdir(self.work)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    code = main(self.cli_argv())
                    wall = time.perf_counter() - t0 + import_s
            finally:
                os.chdir(cwd)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = OpResult(wall_s=wall, rss_mb=rss)
        if code != 0:
            result.problems.append(f"exit code {code}")
            return result
        n_classes = self.w.data_shape[2]
        if self.w.command == "run":
            problems, report = checks.check_run_dir(out, n_classes, self.w.n_learners)
        else:
            problems, report = checks.check_sweep_dir(out, n_classes, self.w.max_size)
        result.problems += problems
        result.digest = checks.dir_digest(out)
        result.artifact_mb = checks.dir_bytes(out) / 1e6
        result.plurality_acc = report["strategy_accuracies"]["plurality"]
        result.filtered_acc = report["strategy_accuracies"]["filtered"]
        return result

    def _inprocess_op(self) -> OpResult:
        t0 = time.perf_counter()
        report = harness.run_experiment(self.config, dataset=self.dataset)
        wall = time.perf_counter() - t0
        d = report.to_dict()
        return OpResult(
            wall_s=wall,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            digest=checks.report_digest(d),
            plurality_acc=d["strategy_accuracies"]["plurality"],
            filtered_acc=d["strategy_accuracies"]["filtered"],
            problems=checks.check_report(d, self.w.data_shape[2]),
        )
