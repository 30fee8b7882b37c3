"""End-to-end experiment orchestration, reporting, and the ensemble-size sweep.

A run is: load data, split (or use predefined train/test files), z-score
normalize on the train side, build the segment-deletion plan, run one job
per network (train, predict on train and test, save; optionally in parallel
threads), apply the configured fusion strategies, and report. Every number
in the result is fixed by (config, master seed): per-learner seeds are
stable hashes of the master seed and the learner index, so thread
scheduling cannot change them.
"""

from __future__ import annotations

import configparser
import inspect
import json
import time
import types
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import __about__, boosting, fusion, mlp
from .boosting import BoostConfig
from .diversify import build_plan, materialize, out_of_bag
from .errors import ConfigError, DataError, TrainingDivergenceError, VoteStackError
from .fusion import PredictionMatrix
from .numerics import all_finite
from .seeding import derive_seed
from .serialize import atomic_write
from .tabular import Dataset, apply_normalizer, fit_normalizer, load_csv, split

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


def _plain(value):
    """Deep copy in JSON shape: tuples become lists."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _conforms(value, hint) -> bool:
    """Whether a JSON value has a field's type: a list stands for a tuple and
    an int for a float, but a bool is no int."""
    if isinstance(hint, types.UnionType):
        return any(_conforms(value, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple))
                and all(_conforms(v, get_args(hint)[0]) for v in value))
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _from_ini(raw: str, hint):
    """Parse an INI string as a field's type: a union tries its arms in order,
    None is spelled auto, a tuple is a comma or space list and a bool takes
    the ConfigParser spellings."""
    if isinstance(hint, types.UnionType):
        for arm in get_args(hint):
            try:
                return _from_ini(raw, arm)
            except (KeyError, ValueError):
                pass
        raise ValueError(raw)
    if hint is types.NoneType:
        return {"auto": None}[raw.lower()]
    if get_origin(hint) is tuple:
        return tuple(_from_ini(p, get_args(hint)[0]) for p in raw.replace(",", " ").split())
    if hint is bool:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    return hint(raw)


def _in(section: str, default, key: str | None = None):
    """A config field set by the INI key `key` (default: the field's name) in `section`."""
    return field(default=default, metadata={"section": section, "key": key})


@contextmanager
def _stage(name: str, spans: list):
    """Run one pipeline stage: append (name, start, end) to the run's spans
    (list.append is atomic, so worker threads share one list) and re-raise a
    module error with the stage name prepended, same type so exit-code
    mapping is preserved."""
    start = time.perf_counter()
    try:
        yield
    except VoteStackError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    spans.append((name, start, time.perf_counter()))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; the defaults mirror the reference setup."""

    dataset_path: str | None = _in("dataset", None, key="path")
    train_path: str | None = _in("dataset", None)
    test_path: str | None = _in("dataset", None)
    label_column: int | str = _in("dataset", -1)
    delimiter: str = _in("dataset", ",")
    has_header: bool | None = _in("dataset", None)
    train_fraction: float = _in("split", 0.8)
    stratified: bool = _in("split", True)
    n_learners: int = _in("ensemble", 7)
    threshold: int | None = _in("ensemble", None)
    strategies: tuple[str, ...] = _in("ensemble", ALL_STRATEGIES)
    weight_mode: str = _in("ensemble", "accuracy")
    level1_mode: str = _in("ensemble", fusion.LEVEL1_PROBA)
    hidden_sizes: tuple[int, ...] = _in("mlp", (1200, 800))
    epochs: int = _in("mlp", mlp.MlpConfig.epochs)
    batch_size: int = _in("mlp", mlp.MlpConfig.batch_size)
    learning_rate: float = _in("mlp", mlp.MlpConfig.learning_rate)
    momentum: float = _in("mlp", mlp.MlpConfig.momentum)
    boost: BoostConfig = field(default_factory=BoostConfig, metadata={"section": "boost"})
    seed: int = _in("run", 0)
    output_dir: str | None = _in("run", None)
    workers: int = _in("run", 1)

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ConfigError(f"[dataset] delimiter must be one character, got {self.delimiter!r}")
        if self.n_learners < 1:
            raise ConfigError("[ensemble] n_learners must be at least 1")
        if self.threshold is not None and not 1 <= self.threshold <= self.n_learners:
            raise ConfigError(
                f"[ensemble] threshold must lie in [1, {self.n_learners}], got {self.threshold}"
            )
        for s in self.strategies:
            if s not in ALL_STRATEGIES:
                raise ConfigError(
                    f"[ensemble] unknown strategy {s!r}; valid: {', '.join(ALL_STRATEGIES)}"
                )
        if not self.strategies:
            raise ConfigError("[ensemble] strategies must not be empty")
        object.__setattr__(
            self, "strategies", tuple(s for s in ALL_STRATEGIES if s in self.strategies)
        )
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(
                f"[ensemble] weight_mode must be one of {', '.join(WEIGHT_MODES)}"
            )
        if self.level1_mode not in (fusion.LEVEL1_PROBA, fusion.LEVEL1_LABEL):
            raise ConfigError("[ensemble] level1_mode must be 'proba' or 'label'")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        try:
            self.mlp_config(1, 2, 0)
        except ConfigError as exc:
            raise ConfigError(f"[mlp] {exc}") from None
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
        """The vote-filter threshold; unset means n-1, floored at 1."""
        if self.threshold is None:
            return max(1, self.n_learners - 1)
        return int(self.threshold)

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
        return {section: {key: _plain(getattr(self.boost if section == "boost" else self, name))
                          for key, (name, _) in keys.items()}
                for section, keys in _SCHEMA.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of to_dict; absent sections and keys keep their defaults.
        Each value must have the type of the field it sets."""
        for section, values in d.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            if not isinstance(values, dict):
                raise ConfigError(f"[{section}] must be a table of keys, got {values!r}")
            for key, value in values.items():
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                hint = _SCHEMA[section][key][1]
                if not _conforms(value, hint):
                    raise ConfigError(f"[{section}] {key} must be "
                                      f"{inspect.formatannotation(hint)}, got {value!r}")
        kwargs = {_SCHEMA[section][key][0]: value
                  for section, values in d.items() if section != "boost"
                  for key, value in values.items()}
        if d.get("boost"):
            try:
                kwargs["boost"] = BoostConfig(**d["boost"])
            except ConfigError as exc:
                raise ConfigError(f"[boost] {exc}") from None
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
        # No interpolation: a value such as "100%.csv" is taken literally.
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        try:
            parser.read_string(path.read_text(encoding="utf-8"))
        except (configparser.Error, OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

        # Unknown sections and keys pass through unparsed for from_dict to reject.
        d: dict = {}
        for section in parser.sections():
            keys = _SCHEMA.get(section, {})
            d[section] = {}
            for key, raw in parser[section].items():
                raw = raw.strip()
                try:
                    d[section][key] = _from_ini(raw, keys[key][1]) if key in keys else raw
                except (KeyError, ValueError, TypeError) as exc:
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


def _schema() -> dict[str, dict[str, tuple[str, object]]]:
    """The config file schema, section -> key -> (field name, type hint), read from
    ExperimentConfig's fields; [boost] is BoostConfig's fields."""
    schema: dict = {}
    hints = get_type_hints(ExperimentConfig)
    for f in fields(ExperimentConfig):
        keys = schema.setdefault(f.metadata["section"], {})
        if f.name == "boost":
            keys.update((name, (name, hint)) for name, hint in get_type_hints(BoostConfig).items())
        else:
            keys[f.metadata["key"] or f.name] = (f.name, hints[f.name])
    return schema


_SCHEMA = _schema()


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


class SweepRow(NamedTuple):
    size: int
    filtered_accuracy: float
    mean_individual_accuracy: float


@dataclass(frozen=True)
class SweepReport:
    """The run reports of an ensemble-size sweep, one per size 1..K."""

    reports: tuple[RunReport, ...]

    @property
    def seed(self) -> int:
        """The master seed every size ran with."""
        return self.reports[0].seed

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """The accuracy-vs-ensemble-size curve, one row per report."""
        return tuple(SweepRow(r.n_learners, r.strategy_accuracies[STRATEGY_FILTERED],
                              r.mean_accuracy) for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rows": [list(row) for row in self.rows],
            "reports": [r.to_dict() for r in self.reports],
        }


def _prepare(config: ExperimentConfig, dataset: Dataset | None,
             spans: list) -> tuple[Dataset, Dataset, str]:
    """Load, split and z-score the data; returns (train, test, report label).

    `dataset` bypasses file loading (the splitter still applies); predefined
    train/test files skip the splitter. The normalizer is fitted on train.
    """
    with _stage("loading data", spans):
        if dataset is not None or config.dataset_path is not None:
            label = "in-memory"
            if dataset is None:
                dataset = load_csv(config.dataset_path, config.label_column,
                                   config.delimiter, config.has_header)
                label = Path(config.dataset_path).stem
            train, test = split(dataset, config.train_fraction, config.stratified,
                                derive_seed(config.seed, "split"))
        elif config.train_path is not None:
            train = load_csv(config.train_path, config.label_column,
                             config.delimiter, config.has_header)
            test = load_csv(config.test_path, config.label_column,
                            config.delimiter, config.has_header,
                            class_names=train.class_names)
            if test.n_features != train.n_features:
                raise DataError(
                    f"train file has {train.n_features} features but test file "
                    f"has {test.n_features}"
                )
            label = Path(config.train_path).stem
        else:
            raise ConfigError(
                "missing dataset location: set [dataset] path, or "
                "[dataset] train_path and test_path"
            )
    with _stage("normalizing", spans):
        norm = fit_normalizer(train)
        train = apply_normalizer(norm, train)
        test = apply_normalizer(norm, test)
    return train, test, label


def _learner_predictions(config: ExperimentConfig, train: Dataset, test: Dataset, plan,
                         out: Path | None, spans: list) -> tuple[PredictionMatrix, PredictionMatrix]:
    """One train-predict-save job per learner. Every job trains on the run's
    one read-only train block through its plan's row index, never a copy of
    its rows. A job returns only its train and test probabilities, so at most
    one trained model per worker is alive; one with a non-finite weight or
    probability raises before it saves its model."""

    def job(j: int) -> tuple[np.ndarray, np.ndarray]:
        rows = None if plan is None else materialize(plan, j)
        cfg = config.mlp_config(train.n_features, train.n_classes, config.learner_seed(j))
        with _stage(f"training learner {j}", spans):
            model = mlp.train(mlp.init(cfg), train.features, train.labels, rows=rows)
        with _stage("predicting", spans):
            probs = (mlp.predict_proba(model, train.features),
                     mlp.predict_proba(model, test.features))
        if not all_finite(*model.weights, *model.biases, *probs):
            raise TrainingDivergenceError(
                f"learner {j}: non-finite weights or probabilities after training")
        if out is not None:
            with _stage(f"training learner {j}", spans):
                mlp.save(model, out / "models" / f"learner_{j}.mlp")
        return probs

    n = config.n_learners
    if config.workers > 1 and n > 1:
        # map cancels the jobs not yet started once one raises.
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            blocks = list(pool.map(job, range(n)))
    else:
        blocks = [job(j) for j in range(n)]
    train_probs, test_probs = zip(*blocks)
    with _stage("predicting", spans):
        # PredictionMatrix stacks the per-learner blocks in its one copy.
        return PredictionMatrix(train_probs), PredictionMatrix(test_probs)


def _learner_weights(config: ExperimentConfig, plan, pm_train: PredictionMatrix,
                     train_labels: np.ndarray) -> fusion.WeightVector:
    """Out-of-bag accuracy or error-variance weights for weighted averaging."""
    n = config.n_learners
    if plan is None:
        return fusion.WeightVector.uniform(n)
    accuracy = config.weight_mode == "accuracy"
    classes = np.arange(pm_train.n_classes)
    stats = np.empty(n)
    for j in range(n):
        oob = out_of_bag(plan, j)
        probs, y = pm_train.probs[j, oob], train_labels[oob]
        # The error subtracts the one-hot label as a bool mask, exactly 1.0 or 0.0.
        stats[j] = (np.mean(np.argmax(probs, axis=1) == y) if accuracy
                    else np.mean((probs - (y[:, None] == classes)) ** 2))
    if accuracy:
        return fusion.weights_from_accuracy(stats)
    return fusion.weights_from_inverse_variance(stats)


def run_experiment(config: ExperimentConfig, dataset: Dataset | None = None) -> RunReport:
    """Execute one full experiment; deterministic for a fixed config.

    `dataset` bypasses file loading (the 80:20 splitter still applies).
    Model binaries are persisted to <output_dir>/models before any fusion
    runs, so a failed fusion stage leaves the trained ensemble on disk.
    """
    spans: list = []
    train, test, label = _prepare(config, dataset, spans)
    return _run(config, train, test, label, spans)


def _run(config: ExperimentConfig, train: Dataset, test: Dataset, label: str,
         spans: list) -> RunReport:
    """Plan, train, predict and fuse on prepared data; the timings sum each
    stage's spans, those already in `spans` included."""
    n = config.n_learners
    out = Path(config.output_dir) if config.output_dir else None
    # A single learner has no segment to delete; it trains on the full set.
    with _stage("planning resamples", spans):
        plan = build_plan(train.n_samples, n, config.seed) if n > 1 else None

    pm_train, pm_test = _learner_predictions(config, train, test, plan, out, spans)

    test_votes = pm_test.votes()
    per_learner = tuple(
        float(np.mean(test_votes[j] == test.labels)) for j in range(n)
    )
    mean_accuracy = sum(per_learner) / n

    outcomes: dict[str, fusion.FusionOutcome] = {}
    with _stage("fusing", spans):
        if STRATEGY_AVERAGE in config.strategies:
            outcomes[STRATEGY_AVERAGE] = fusion.model_average(pm_test)
        if STRATEGY_WEIGHTED in config.strategies:
            weights = _learner_weights(config, plan, pm_train, train.labels)
            outcomes[STRATEGY_WEIGHTED] = fusion.model_average(pm_test, weights)
        if STRATEGY_PLURALITY in config.strategies:
            outcomes[STRATEGY_PLURALITY] = fusion.plurality_vote(pm_test)
        if STRATEGY_MAJORITY in config.strategies:
            outcomes[STRATEGY_MAJORITY] = fusion.majority_vote(pm_test)
    # Plain stacking is the vote filter at n+1, where no vote is confident.
    for name, threshold, model_file in (
            (STRATEGY_META, n + 1, "meta.gbt"),
            (STRATEGY_FILTERED, config.effective_threshold, "filtered_meta.gbt")):
        if name not in config.strategies:
            continue
        with _stage(f"stacking {name}", spans):
            fitted = fusion.fit_filtered(pm_train, train.labels, config.boost,
                                         threshold, config.level1_mode)
            if out is not None and fitted.meta_model is not None:
                boosting.save(fitted.meta_model, out / "models" / model_file)
            outcomes[name] = fusion.apply_filtered(fitted, pm_test)
    timings: dict[str, float] = {}
    for name, start, end in spans:
        timings[name] = timings.get(name, 0.0) + end - start
    timings["total_seconds"] = max(span[2] for span in spans) - min(span[1] for span in spans)

    majority = outcomes.get(STRATEGY_MAJORITY)
    filtered = outcomes.get(STRATEGY_FILTERED)
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
        strategy_accuracies={name: fusion.outcome_accuracy(o, test.labels)
                             for name, o in outcomes.items()},
        rejected_count=majority.rejected_count if majority is not None else 0,
        route_counts=filtered.route_counts() if filtered is not None else {},
        warnings=tuple(w for o in outcomes.values() for w in o.warnings),
        decisions={name: o.decisions.tolist() for name, o in outcomes.items()},
        # The one place route codes become the names artifacts carry.
        routes={name: (None if o.routes is None
                       else [fusion.ROUTES[c] for c in o.routes.tolist()])
                for name, o in outcomes.items()},
        config=config.to_dict(),
        timings=timings,
        plan_manifest=plan.to_manifest() if plan is not None else None,
    )


def sweep(config: ExperimentConfig, max_size: int,
          dataset: Dataset | None = None) -> SweepReport:
    """Run the experiment at every ensemble size 1..max_size, shared seed.

    The data is loaded, split and normalized once and shared by every size;
    those stages' spans go to size 1's timings. Each size uses its own
    default filter threshold (size-1, floored at 1) and, when an output
    directory is set, its own size_<k> subdirectory.
    """
    if max_size < 1:
        raise ConfigError("sweep max_size must be at least 1")
    spans: list = []
    train, test, label = _prepare(config, dataset, spans)
    reports = []
    for size in range(1, max_size + 1):
        sub_out = (str(Path(config.output_dir) / f"size_{size}")
                   if config.output_dir else None)
        sub = replace(config, n_learners=size, threshold=None,
                      strategies=(*config.strategies, STRATEGY_FILTERED),
                      output_dir=sub_out)
        reports.append(_run(sub, train, test, label, spans if size == 1 else []))
    return SweepReport(tuple(reports))


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
