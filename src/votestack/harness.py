"""End-to-end experiment orchestration, reporting, and the ensemble-size sweep.

A run is: load data, split (or use predefined train/test files), z-score
normalize on the train side, build the segment-deletion plan, train the n
networks (optionally in parallel threads), predict on train and test, apply
the configured fusion strategies, and report. Every number in the result is
fixed by (config, master seed): per-learner seeds are stable hashes of the
master seed and the learner index, so thread scheduling cannot change them.
"""

from __future__ import annotations

import configparser
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __about__, boosting, fusion, mlp
from .boosting import BoostConfig
from .diversify import build_plan, materialize, out_of_bag
from .errors import ConfigError, DataError, VoteStackError
from .fusion import PredictionMatrix
from .seeding import derive_seed
from .serialize import atomic_write
from .tabular import (
    Dataset,
    SplitSpec,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    split,
)

STRATEGY_AVERAGE = "average"
STRATEGY_WEIGHTED = "weighted_average"
STRATEGY_PLURALITY = "plurality"
STRATEGY_MAJORITY = "majority"
STRATEGY_META = "meta"
STRATEGY_FILTERED = "filtered"

ALL_STRATEGIES = (
    STRATEGY_AVERAGE,
    STRATEGY_WEIGHTED,
    STRATEGY_PLURALITY,
    STRATEGY_MAJORITY,
    STRATEGY_META,
    STRATEGY_FILTERED,
)

WEIGHT_MODES = ("accuracy", "inverse_variance")

def _as_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _as_tribool(raw: str) -> bool | None:
    return None if raw.lower() == "auto" else _as_bool(raw)


def _as_label_column(raw: str) -> int | str:
    try:
        return int(raw)
    except ValueError:
        return raw


def _as_int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.replace(",", " ").split())


def _as_str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(raw.replace(",", " ").split())


# The config file schema: section -> key -> parser of the raw INI string.
# A key names the ExperimentConfig field it sets, except [dataset] path
# (field dataset_path); [boost] keys name BoostConfig fields. Defaults live
# only on the dataclass fields.
_CONFIG_SCHEMA = {
    "dataset": {"path": str, "train_path": str, "test_path": str,
                "label_column": _as_label_column, "delimiter": str,
                "has_header": _as_tribool},
    "split": {"train_fraction": float, "stratified": _as_bool},
    "ensemble": {"n_learners": int, "threshold": int,
                 "strategies": _as_str_tuple, "weight_mode": str,
                 "level1_mode": str},
    "mlp": {"hidden_sizes": _as_int_tuple, "epochs": int, "batch_size": int,
            "learning_rate": float, "momentum": float},
    "boost": {"rounds": int, "max_depth": int, "learning_rate": float,
              "l2_lambda": float, "min_child_weight": float},
    "run": {"seed": int, "output_dir": str, "workers": int},
}
_FIELD_OF_KEY = {"path": "dataset_path"}


def _plain(value):
    """Deep copy in JSON shape: tuples become lists."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@contextmanager
def _stage(name: str):
    # Re-raise module errors with the pipeline stage prepended, same type
    # so exit-code mapping is preserved.
    try:
        yield
    except VoteStackError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults mirror the reference setup (n=7,
    hidden 1200/800, 25 epochs, 80:20 split, filter threshold n-1)."""

    dataset_path: str | None = None
    train_path: str | None = None
    test_path: str | None = None
    label_column: int | str = -1
    delimiter: str = ","
    has_header: bool | None = None
    train_fraction: float = 0.8
    stratified: bool = True
    n_learners: int = 7
    threshold: int | None = None
    strategies: tuple[str, ...] = ALL_STRATEGIES
    weight_mode: str = "accuracy"
    level1_mode: str = fusion.LEVEL1_PROBA
    hidden_sizes: tuple[int, ...] = (1200, 800)
    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    boost: BoostConfig = field(default_factory=BoostConfig)
    seed: int = 0
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.n_learners < 1:
            raise ConfigError("[ensemble] n_learners must be at least 1")
        fusion.effective_threshold(self.threshold, self.n_learners)  # range check
        seen = []
        for s in self.strategies:
            if s not in ALL_STRATEGIES:
                raise ConfigError(
                    f"[ensemble] unknown strategy {s!r}; valid: {', '.join(ALL_STRATEGIES)}"
                )
            if s not in seen:
                seen.append(s)
        if not seen:
            raise ConfigError("[ensemble] strategies must not be empty")
        object.__setattr__(
            self, "strategies", tuple(s for s in ALL_STRATEGIES if s in seen)
        )
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(
                f"[ensemble] weight_mode must be one of {', '.join(WEIGHT_MODES)}"
            )
        if self.level1_mode not in (fusion.LEVEL1_PROBA, fusion.LEVEL1_LABEL):
            raise ConfigError("[ensemble] level1_mode must be 'proba' or 'label'")
        hidden = tuple(int(h) for h in self.hidden_sizes)
        if not hidden or any(h < 1 for h in hidden):
            raise ConfigError("[mlp] hidden_sizes must be positive integers")
        object.__setattr__(self, "hidden_sizes", hidden)
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError("[split] train_fraction must lie in (0, 1)")
        if self.workers < 1:
            raise ConfigError("[run] workers must be at least 1")
        if (self.train_path is None) != (self.test_path is None):
            raise ConfigError(
                "[dataset] train_path and test_path must be given together"
            )
        if self.dataset_path is not None and self.train_path is not None:
            raise ConfigError(
                "[dataset] give either path or train_path/test_path, not both"
            )

    @property
    def effective_threshold(self) -> int:
        return fusion.effective_threshold(self.threshold, self.n_learners)

    def learner_seed(self, learner_id: int) -> int:
        return derive_seed(self.seed, "learner", learner_id)

    def mlp_config(self, n_features: int, n_classes: int, seed: int) -> mlp.MlpConfig:
        return mlp.MlpConfig(
            layer_sizes=(n_features, *self.hidden_sizes, n_classes),
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            seed=seed,
        )

    def to_dict(self) -> dict:
        out = {section: {key: _plain(getattr(self, _FIELD_OF_KEY.get(key, key)))
                         for key in keys}
               for section, keys in _CONFIG_SCHEMA.items() if section != "boost"}
        out["boost"] = self.boost.to_dict()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of to_dict; absent sections and keys keep their defaults."""
        for section, values in d.items():
            if section not in _CONFIG_SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key in values:
                if key not in _CONFIG_SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        kwargs = {_FIELD_OF_KEY.get(key, key): value
                  for section, values in d.items() if section != "boost"
                  for key, value in values.items()}
        if d.get("boost"):
            kwargs["boost"] = BoostConfig.from_dict(d["boost"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Parse a flat key-value config file with [section] headers.

        Requires a dataset location: either [dataset] path, or the
        train_path/test_path pair for data predefined as two files.
        """
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(path.read_text(encoding="utf-8"))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc

        # Unknown sections and keys pass through unparsed for from_dict to reject.
        d: dict = {}
        for section in parser.sections():
            parsers = _CONFIG_SCHEMA.get(section, {})
            d[section] = {}
            for key, raw in parser[section].items():
                raw = raw.strip()
                try:
                    d[section][key] = parsers.get(key, str)(raw)
                except (ValueError, TypeError) as exc:
                    raise ConfigError(
                        f"{path}: [{section}] {key}: cannot parse {raw!r}"
                    ) from exc
        try:
            config = cls.from_dict(d)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if config.dataset_path is None and config.train_path is None:
            raise ConfigError(
                f"{path}: missing dataset location: set [dataset] path, or "
                "[dataset] train_path and test_path"
            )
        return config


@dataclass(frozen=True)
class RunReport:
    """Complete result of one experiment; JSON round-trips exactly.

    Timings are wall-clock measurements and hence the one field excluded
    from determinism comparisons between repeated runs.
    """

    dataset_label: str
    seed: int
    n_learners: int
    threshold: int
    n_train: int
    n_test: int
    learner_seeds: tuple[int, ...]
    per_learner_accuracies: tuple[float, ...]
    mean_accuracy: float
    strategy_accuracies: dict[str, float]
    rejected_count: int
    route_counts: dict[str, int]
    warnings: tuple[str, ...]
    decisions: dict[str, tuple[int, ...]]
    routes: dict[str, tuple[str, ...] | None]
    config: dict
    timings: dict[str, float]
    plan_manifest: dict | None

    def __post_init__(self):
        for name in ("learner_seeds", "per_learner_accuracies", "warnings"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "decisions",
                           {k: tuple(v) for k, v in self.decisions.items()})
        object.__setattr__(self, "routes",
                           {k: (tuple(v) if v is not None else None)
                            for k, v in self.routes.items()})

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        return cls(**{f.name: _plain(d[f.name]) for f in fields(cls)})


@dataclass(frozen=True)
class SweepRow:
    size: int
    filtered_accuracy: float
    mean_individual_accuracy: float


@dataclass(frozen=True)
class SweepReport:
    """Accuracy-vs-ensemble-size curve data plus the underlying run reports."""

    seed: int
    rows: tuple[SweepRow, ...]
    reports: tuple[RunReport, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "reports", tuple(self.reports))
        sizes = [r.size for r in self.rows]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("sweep sizes must be strictly increasing")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rows": [[r.size, r.filtered_accuracy, r.mean_individual_accuracy]
                     for r in self.rows],
            "reports": [r.to_dict() for r in self.reports],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        return cls(
            seed=d["seed"],
            rows=tuple(SweepRow(int(s), float(p), float(m)) for s, p, m in d["rows"]),
            reports=tuple(RunReport.from_dict(r) for r in d["reports"]),
        )


def _load_data(config: ExperimentConfig,
               dataset: Dataset | None) -> tuple[Dataset, Dataset, str]:
    """Resolve (train, test, label) from an in-memory dataset or config paths."""
    if dataset is None and config.train_path is not None:
        train = load_csv(config.train_path, config.label_column,
                         config.delimiter, config.has_header)
        test = load_csv(config.test_path, config.label_column,
                        config.delimiter, config.has_header,
                        class_names=train.schema.class_names)
        if test.n_features != train.n_features:
            raise DataError(
                f"train file has {train.n_features} features but test file "
                f"has {test.n_features}"
            )
        return train, test, Path(config.train_path).stem
    if dataset is not None:
        label = "in-memory"
    elif config.dataset_path is not None:
        dataset = load_csv(config.dataset_path, config.label_column,
                           config.delimiter, config.has_header)
        label = Path(config.dataset_path).stem
    else:
        raise ConfigError(
            "missing dataset location: set [dataset] path, or "
            "[dataset] train_path and test_path"
        )
    spec = SplitSpec(config.train_fraction, config.stratified,
                     seed=derive_seed(config.seed, "split"))
    train, test = split(dataset, spec)
    return train, test, label


def _train_learners(config: ExperimentConfig, train: Dataset,
                    plan) -> list[mlp.MlpModel]:
    n = config.n_learners
    n_classes = train.schema.n_classes

    def job(j: int) -> mlp.MlpModel:
        if plan is None:
            idx = np.arange(train.n_samples)
        else:
            idx = materialize(plan, j)
        cfg = config.mlp_config(train.n_features, n_classes, config.learner_seed(j))
        with _stage(f"training learner {j}"):
            return mlp.train(mlp.init(cfg), train.features[idx], train.labels[idx])

    if config.workers > 1 and n > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(job, j) for j in range(n)]
            return [f.result() for f in futures]
    return [job(j) for j in range(n)]


def _learner_weights(config: ExperimentConfig, plan, pm_train: PredictionMatrix,
                     train_labels: np.ndarray) -> fusion.WeightVector:
    """Out-of-bag accuracy or error-variance weights for weighted averaging."""
    n = config.n_learners
    if plan is None or n == 1:
        return fusion.WeightVector.uniform(n)
    C = pm_train.n_classes
    accs = np.empty(n)
    variances = np.empty(n)
    for j in range(n):
        oob = out_of_bag(plan, j)
        probs = pm_train.probs[j, oob]
        y = train_labels[oob]
        accs[j] = np.mean(np.argmax(probs, axis=1) == y)
        onehot = np.eye(C)[y]
        variances[j] = np.mean((probs - onehot) ** 2)
    if config.weight_mode == "accuracy":
        return fusion.weights_from_accuracy(accs)
    return fusion.weights_from_inverse_variance(variances)


def run_experiment(config: ExperimentConfig, dataset: Dataset | None = None,
                   dataset_label: str | None = None) -> RunReport:
    """Execute one full experiment; deterministic for a fixed config.

    `dataset` bypasses file loading (the 80:20 splitter still applies).
    Model binaries are persisted to <output_dir>/models before any fusion
    runs, so a failed fusion stage leaves the trained ensemble on disk.
    """
    t_start = time.perf_counter()
    with _stage("loading data"):
        train, test, inferred_label = _load_data(config, dataset)
    label = dataset_label if dataset_label is not None else inferred_label

    with _stage("normalizing"):
        norm = fit_normalizer(train)
        train = apply_normalizer(norm, train)
        test = apply_normalizer(norm, test)
    t_loaded = time.perf_counter()

    n = config.n_learners
    # A single learner has no segment to delete; it trains on the full set.
    with _stage("planning resamples"):
        plan = build_plan(train.n_samples, n, config.seed) if n > 1 else None

    models = _train_learners(config, train, plan)
    t_trained = time.perf_counter()

    out = Path(config.output_dir) if config.output_dir else None
    if out is not None:
        for j, model in enumerate(models):
            mlp.save(model, out / "models" / f"learner_{j}.mlp")

    with _stage("predicting"):
        pm_train = PredictionMatrix(
            np.stack([mlp.predict_proba(m, train.features) for m in models]))
        pm_test = PredictionMatrix(
            np.stack([mlp.predict_proba(m, test.features) for m in models]))

    test_votes = pm_test.votes()
    per_learner = tuple(
        float(np.mean(test_votes[j] == test.labels)) for j in range(n)
    )
    mean_accuracy = sum(per_learner) / n

    strategy_accuracies: dict[str, float] = {}
    decisions: dict[str, tuple[int, ...]] = {}
    routes: dict[str, tuple[str, ...] | None] = {}
    warnings: list[str] = []
    rejected_count = 0
    route_counts: dict[str, int] = {}

    def record(name: str, outcome: fusion.FusionOutcome) -> None:
        strategy_accuracies[name] = fusion.outcome_accuracy(outcome, test.labels)
        decisions[name] = tuple(int(v) for v in outcome.decisions)
        # The one place route codes become the names artifacts carry.
        routes[name] = (None if outcome.routes is None
                        else tuple(fusion.ROUTES[c] for c in outcome.routes.tolist()))
        warnings.extend(outcome.warnings)

    with _stage("fusing"):
        if STRATEGY_AVERAGE in config.strategies:
            record(STRATEGY_AVERAGE, fusion.model_average(pm_test))
        if STRATEGY_WEIGHTED in config.strategies:
            weights = _learner_weights(config, plan, pm_train, train.labels)
            record(STRATEGY_WEIGHTED, fusion.model_average(pm_test, weights))
        if STRATEGY_PLURALITY in config.strategies:
            record(STRATEGY_PLURALITY, fusion.plurality_vote(pm_test))
        if STRATEGY_MAJORITY in config.strategies:
            outcome = fusion.majority_vote(pm_test)
            rejected_count = outcome.rejected_count
            record(STRATEGY_MAJORITY, outcome)
        if STRATEGY_META in config.strategies:
            meta_model = fusion.fit_meta(pm_train, train.labels, config.boost,
                                         config.level1_mode)
            if out is not None:
                boosting.save(meta_model, out / "models" / "meta.gbt")
            record(STRATEGY_META, fusion.meta_fuse(meta_model, pm_test,
                                                   config.level1_mode))
        if STRATEGY_FILTERED in config.strategies:
            fitted = fusion.fit_filtered(pm_train, train.labels, config.boost,
                                         config.effective_threshold,
                                         config.level1_mode)
            if out is not None and fitted.meta_model is not None:
                boosting.save(fitted.meta_model, out / "models" / "filtered_meta.gbt")
            outcome = fusion.apply_filtered(fitted, pm_test)
            route_counts = outcome.route_counts()
            record(STRATEGY_FILTERED, outcome)
    t_done = time.perf_counter()

    return RunReport(
        dataset_label=label,
        seed=config.seed,
        n_learners=n,
        threshold=config.effective_threshold,
        n_train=train.n_samples,
        n_test=test.n_samples,
        learner_seeds=tuple(config.learner_seed(j) for j in range(n)),
        per_learner_accuracies=per_learner,
        mean_accuracy=mean_accuracy,
        strategy_accuracies=strategy_accuracies,
        rejected_count=rejected_count,
        route_counts=route_counts,
        warnings=tuple(warnings),
        decisions=decisions,
        routes=routes,
        config=config.to_dict(),
        timings={
            "load_seconds": t_loaded - t_start,
            "train_seconds": t_trained - t_loaded,
            "fusion_seconds": t_done - t_trained,
            "total_seconds": t_done - t_start,
        },
        plan_manifest=plan.to_manifest() if plan is not None else None,
    )


def sweep(config: ExperimentConfig, max_size: int = 8,
          dataset: Dataset | None = None,
          dataset_label: str | None = None) -> SweepReport:
    """Run the experiment at every ensemble size 1..max_size, shared seed.

    Each size uses its own default filter threshold (size-1, floored at 1)
    and, when an output directory is set, its own size_<k> subdirectory.
    """
    if max_size < 1:
        raise ConfigError("sweep max_size must be at least 1")
    rows = []
    reports = []
    for size in range(1, max_size + 1):
        strategies = tuple(
            s for s in ALL_STRATEGIES
            if s in config.strategies or s == STRATEGY_FILTERED
        )
        sub_out = (str(Path(config.output_dir) / f"size_{size}")
                   if config.output_dir else None)
        sub = replace(config, n_learners=size, threshold=None,
                      strategies=strategies, output_dir=sub_out)
        report = run_experiment(sub, dataset=dataset, dataset_label=dataset_label)
        reports.append(report)
        rows.append(SweepRow(
            size=size,
            filtered_accuracy=report.strategy_accuracies[STRATEGY_FILTERED],
            mean_individual_accuracy=report.mean_accuracy,
        ))
    return SweepReport(seed=config.seed, rows=tuple(rows), reports=tuple(reports))


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(report: RunReport, directory: str | Path) -> dict[str, Path]:
    """Write the run artifacts; returns the paths keyed by artifact name.

    report.json holds every report field; accuracy_table.csv is the one-row
    strategy summary (plurality | meta | filtered columns); decisions.csv
    lists every per-sample decision with its route; manifest.json records
    config, seeds, and tool version for exact re-runs.
    """
    directory = Path(directory)
    paths = {
        "report": directory / "report.json",
        "accuracy_table": directory / "accuracy_table.csv",
        "decisions": directory / "decisions.csv",
        "manifest": directory / "manifest.json",
    }
    _write_text(paths["report"], _json_dumps(report.to_dict()))

    def cell(name: str) -> str:
        acc = report.strategy_accuracies.get(name)
        return repr(acc) if acc is not None else ""

    table = "dataset,plurality,meta,filtered\n" + ",".join(
        [report.dataset_label, cell(STRATEGY_PLURALITY), cell(STRATEGY_META),
         cell(STRATEGY_FILTERED)]
    ) + "\n"
    _write_text(paths["accuracy_table"], table)

    lines = ["strategy,sample_id,decision,route"]
    for name, strategy_decisions in report.decisions.items():
        strategy_routes = report.routes.get(name) or ("",) * len(strategy_decisions)
        for i, (decision, route) in enumerate(zip(strategy_decisions, strategy_routes)):
            lines.append(f"{name},{i},{decision},{route}")
    _write_text(paths["decisions"], "\n".join(lines) + "\n")

    manifest = {
        "tool": __about__.TOOL_NAME,
        "version": __about__.__version__,
        "seed": report.seed,
        "learner_seeds": list(report.learner_seeds),
        "plan": report.plan_manifest,
        "config": report.config,
    }
    _write_text(paths["manifest"], _json_dumps(manifest))
    return paths


def emit_sweep(report: SweepReport, directory: str | Path) -> dict[str, Path]:
    """Write sweep.csv (size, filtered, mean individual) and sweep.json."""
    directory = Path(directory)
    paths = {
        "sweep_csv": directory / "sweep.csv",
        "sweep_json": directory / "sweep.json",
    }
    lines = ["size,filtered,mean_individual"]
    for row in report.rows:
        lines.append(
            f"{row.size},{row.filtered_accuracy!r},{row.mean_individual_accuracy!r}"
        )
    _write_text(paths["sweep_csv"], "\n".join(lines) + "\n")
    _write_text(paths["sweep_json"], _json_dumps(report.to_dict()))
    return paths
