"""Output checks run after every operation, and the determinism digest.

Each check returns a list of problems; an empty list means the operation's
outputs are correct. The digest covers every deterministic output: artifact
bytes, with the wall-clock `timings` field removed from report.json and
sweep.json, or the in-memory report dict without `timings`.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from votestack import boosting, mlp
from votestack.fusion import REJECTED, ROUTE_CONFIDENT, ROUTE_FALLBACK, ROUTE_META

MAJORITY = "majority"
FILTERED = "filtered"


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _canonical(obj) -> bytes:
    return json.dumps(_strip_timings(obj), sort_keys=True).encode("utf-8")


def report_digest(report: dict) -> str:
    return hashlib.sha256(_canonical(report)).hexdigest()


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name in ("report.json", "sweep.json"):
            data = _canonical(json.loads(data))
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def check_report(report: dict, n_classes: int, claim: bool = True) -> list[str]:
    """Decisions, routes and (when `claim`) filtered beating the mean learner."""
    problems = []
    n_test = report["n_test"]
    for name, decisions in report["decisions"].items():
        allowed = set(range(n_classes)) | ({REJECTED} if name == MAJORITY else set())
        if len(decisions) != n_test:
            problems.append(f"{name}: {len(decisions)} decisions for {n_test} test rows")
        bad = sorted(set(decisions) - allowed)
        if bad:
            problems.append(f"{name}: invalid decisions {bad[:5]}")
    if FILTERED in report["decisions"]:
        counts = report["route_counts"]
        if sum(counts.values()) != n_test:
            problems.append(f"route counts {counts} do not sum to {n_test}")
        routes = report["routes"][FILTERED]
        for route in (ROUTE_CONFIDENT, ROUTE_META, ROUTE_FALLBACK):
            if routes.count(route) != counts.get(route, 0):
                problems.append(f"route {route!r}: count {counts.get(route)} "
                                f"but {routes.count(route)} tagged rows")
        if claim and not report["strategy_accuracies"][FILTERED] > report["mean_accuracy"]:
            problems.append(
                f"filtered accuracy {report['strategy_accuracies'][FILTERED]!r} does not "
                f"exceed mean learner accuracy {report['mean_accuracy']!r}")
    return problems


def _check_models(models: Path, n_learners: int) -> list[str]:
    problems = []
    learners = sorted(models.glob("*.mlp"))
    if len(learners) != n_learners:
        problems.append(f"{models}: {len(learners)} .mlp files for {n_learners} learners")
    for path in learners:
        mlp.load(path)
    for path in sorted(models.glob("*.gbt")):
        boosting.load(path)
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_run_dir(out: Path, n_classes: int, n_learners: int) -> tuple[list[str], dict]:
    """Artifacts of `votestack run`: report, table, decisions, models."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = check_report(report, n_classes)

    header, row = _read_csv(out / "accuracy_table.csv")
    if header != ["dataset", "plurality", "meta", "filtered"]:
        problems.append(f"accuracy_table.csv header {header}")
    if row[0] != report["dataset_label"]:
        problems.append(f"accuracy_table.csv dataset {row[0]!r}")
    for name, cell in zip(header[1:], row[1:]):
        expected = report["strategy_accuracies"].get(name)
        if (float(cell) if cell else None) != expected:
            problems.append(f"accuracy_table.csv {name}={cell!r}, report.json {expected!r}")

    rows = _read_csv(out / "decisions.csv")[1:]
    decisions = {name: [] for name in report["decisions"]}
    routes = []
    for strategy, _, decision, route in rows:
        decisions[strategy].append(int(decision))
        if strategy == FILTERED:
            routes.append(route)
    if decisions != report["decisions"]:
        problems.append("decisions.csv does not match report.json decisions")
    for route, count in report["route_counts"].items():
        if routes.count(route) != count:
            problems.append(f"decisions.csv has {routes.count(route)} {route!r} rows, "
                            f"report.json {count}")

    problems += _check_models(out / "models", n_learners)
    return problems, report


def check_sweep_dir(out: Path, n_classes: int, max_size: int) -> tuple[list[str], dict]:
    """Artifacts of `votestack sweep`; returns the largest size's report."""
    sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    problems = []
    reports = sweep["reports"]
    if [r["n_learners"] for r in reports] != list(range(1, max_size + 1)):
        problems.append("sweep.json does not hold one report per size 1..max")
    table = _read_csv(out / "sweep.csv")[1:]
    expected = [[str(s), repr(f), repr(m)] for s, f, m in sweep["rows"]]
    if table != expected:
        problems.append("sweep.csv does not match sweep.json rows")
    for (size, filtered, mean), report in zip(sweep["rows"], reports):
        if (filtered, mean) != (report["strategy_accuracies"][FILTERED],
                                report["mean_accuracy"]):
            problems.append(f"sweep.json row {size} disagrees with its report")
        problems += [f"size {size}: {p}" for p in
                     check_report(report, n_classes, claim=size == max_size)]
        problems += _check_models(out / f"size_{size}" / "models", size)
    return problems, reports[-1]
