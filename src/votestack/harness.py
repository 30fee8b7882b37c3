"""End-to-end experiment orchestration, reporting, and the ensemble-size sweep.

A run loads its data, splits it (or takes predefined train/test files) and
z-scores it on the train side; a sweep does so once for all its sizes. One
job list then trains every learner of the run, or of every size, one job per
(run, learner) serially or in threads, and fuses and reports each run from
its own jobs' blocks. Every number in the result is fixed by (config, master
seed): per-learner seeds are stable hashes of the master seed and the
learner index, so thread scheduling cannot change them.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import re
import time
import types
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __about__, boosting, fusion, mlp
from .boosting import BoostConfig
from .diversify import build_plan, materialize
from .errors import ConfigError, DataError, TrainingDivergenceError, VoteStackError
from .fusion import PredictionMatrix
from .numerics import (COUNT, FRACTION, POSITIVE, UNIT, all_finite, conform, conform_fields,
                       config_fields)
from .seeding import derive_seed
from .serialize import atomic_write
from .tabular import Dataset, apply_normalizer, conform_delimiter, fit_normalizer, load_csv, split

STRATEGY_AVERAGE = "average"
STRATEGY_PLURALITY = "plurality"
STRATEGY_MAJORITY = "majority"
STRATEGY_META = "meta"
STRATEGY_FILTERED = "filtered"

ALL_STRATEGIES = (
    STRATEGY_AVERAGE,
    STRATEGY_PLURALITY,
    STRATEGY_MAJORITY,
    STRATEGY_META,
    STRATEGY_FILTERED,
)


def _plain(value):
    """Deep copy in JSON shape: tuples become lists."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _from_ini(raw: str, hint):
    """Parse an INI string as a field's type: a union tries its arms in order,
    None is spelled auto, a tuple is a comma or space list and a bool takes
    the ConfigParser spellings."""
    if isinstance(hint, types.UnionType):
        for arm in get_args(hint):
            with suppress(KeyError, ValueError):
                return _from_ini(raw, arm)
        raise ValueError(raw)
    if hint is types.NoneType:
        return {"auto": None}[raw.lower()]
    if get_origin(hint) is tuple:
        return tuple(_from_ini(p, get_args(hint)[0]) for p in raw.replace(",", " ").split())
    if hint is bool:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    return hint(raw)  # an Annotated hint calls its type


def _in(section: str, default, key: str | None = None):
    """A config field set by the INI key `key` (default: the field's name) in `section`."""
    return field(default=default, metadata={"section": section, "key": key})


@contextmanager
def _stage(name: str, spans: list):
    """Run one pipeline stage: append (name, start, end) to `spans`, which one
    job or one run's fusion owns, and re-raise a module error with the stage
    name prepended, same type so exit-code mapping is preserved."""
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
    train_fraction: FRACTION = _in("split", 0.8)
    stratified: bool = _in("split", True)
    n_learners: COUNT = _in("ensemble", 7)
    threshold: int | None = _in("ensemble", None)
    strategies: tuple[str, ...] = _in("ensemble", ALL_STRATEGIES)
    level1_mode: str = _in("ensemble", fusion.LEVEL1_PROBA)
    hidden_sizes: tuple[int, ...] = _in("mlp", (1200, 800))
    epochs: COUNT = _in("mlp", mlp.MlpConfig.epochs)
    batch_size: COUNT = _in("mlp", mlp.MlpConfig.batch_size)
    learning_rate: POSITIVE = _in("mlp", mlp.MlpConfig.learning_rate)
    momentum: UNIT = _in("mlp", mlp.MlpConfig.momentum)
    boost: BoostConfig = field(default_factory=BoostConfig, metadata={"section": "boost"})
    seed: int = _in("run", 0)
    output_dir: str | None = _in("run", None)
    workers: COUNT = _in("run", 1)

    def __post_init__(self):
        # A field is named as its INI file names it, such as `[dataset] path`.
        conform_fields(self, lambda f: "[boost]" if f.name == "boost" else
                       f"[{f.metadata['section']}] {f.metadata['key'] or f.name}")
        conform_delimiter(self.delimiter, "[dataset] delimiter")
        if self.threshold is not None and not 1 <= self.threshold <= self.n_learners:
            raise ConfigError(
                f"[ensemble] threshold must lie in [1, {self.n_learners}], got {self.threshold}"
            )
        for s in self.strategies:
            if s not in ALL_STRATEGIES:
                raise ConfigError(f"[ensemble] strategies: unknown strategy {s!r}; "
                                  f"valid: {', '.join(ALL_STRATEGIES)}")
        if not self.strategies:
            raise ConfigError("[ensemble] strategies must not be empty")
        object.__setattr__(self, "strategies",
                           tuple(s for s in ALL_STRATEGIES if s in self.strategies))
        if self.level1_mode not in (fusion.LEVEL1_PROBA, fusion.LEVEL1_LABEL):
            raise ConfigError("[ensemble] level1_mode must be 'proba' or 'label'")
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ConfigError("[mlp] need at least one hidden layer, and all layer sizes at "
                              f"least 1, got hidden_sizes {self.hidden_sizes}")
        if (self.train_path is None) != (self.test_path is None):
            raise ConfigError("[dataset] train_path and test_path must be given together")
        if self.dataset_path is not None and self.train_path is not None:
            raise ConfigError("[dataset] give either path or train_path/test_path, not both")

    @property
    def effective_threshold(self) -> int:
        """The vote-filter threshold; unset means n-1, floored at 1."""
        if self.threshold is None:
            return max(1, self.n_learners - 1)
        return self.threshold

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
        The constructors check that each value has the type of the field it sets."""
        for section, values in d.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            if not isinstance(values, dict):
                raise ConfigError(f"[{section}] must be a table of keys, got {values!r}")
            for key in values:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
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
            parser.read_string(path.read_text(encoding="utf-8-sig"))
        except (configparser.Error, OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

        # Unknown sections and keys pass through unparsed for from_dict to reject.
        d: dict = {}
        for section in parser.sections():
            keys = _SCHEMA.get(section, {})
            d[section] = {}
            for key, raw in parser[section].items():
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
    for f, hint in config_fields(ExperimentConfig):
        keys = schema.setdefault(f.metadata["section"], {})
        if f.name == "boost":
            keys.update((b.name, (b.name, h)) for b, h in config_fields(BoostConfig))
        else:
            keys[f.metadata["key"] or f.name] = (f.name, hint)
    return schema


_SCHEMA = _schema()


@dataclass(frozen=True)
class RunReport:
    """Complete result of one experiment; report.json holds its to_dict().

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

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


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
            train, test = split(dataset, config.train_fraction, config.stratified, config.seed)
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


def run_experiment(config: ExperimentConfig, dataset: Dataset | None = None) -> RunReport:
    """Execute one full experiment; deterministic for a fixed config.

    `dataset` bypasses file loading (the 80:20 splitter still applies).
    Model binaries are persisted to <output_dir>/models before any fusion
    runs, so a failed fusion stage leaves the trained ensemble on disk.
    """
    spans: list = []
    train, test, label = _prepare(config, dataset, spans)
    return _run_all([config], train, test, label, spans)[0]


def _plan(config: ExperimentConfig, n_samples: int):
    """The run's segment-deletion plan; a lone learner has none and trains on every row."""
    return build_plan(n_samples, config.n_learners, config.seed) if config.n_learners > 1 else None


def _run_all(configs: list[ExperimentConfig], train: Dataset, test: Dataset, label: str,
             spans: list, stale: tuple[Path, ...] = ()) -> tuple[RunReport, ...]:
    """The one job list of a run or a sweep: every (run, learner) job through
    one map, then each run fused from its own jobs' blocks, the first with
    `spans`. The largest plan is checked before any model is removed or job
    starts; an exception leaving here cancels every job not yet started."""
    with _stage("planning resamples", []):
        _plan(max(configs, key=lambda c: c.n_learners), train.n_samples)
    # Each run's models replace, never sit beside, an earlier run's; other files stay.
    for out in (*stale, *(Path(c.output_dir) for c in configs if c.output_dir)):
        for old in (out / "models").glob("*"):
            if re.fullmatch(r"learner_\d+\.mlp|(filtered_)?meta\.gbt", old.name) and old.is_file():
                try:
                    old.unlink()
                except OSError as exc:
                    raise ConfigError(f"cannot remove {old}: {exc}") from exc
    # A path that cannot hold models/ fails here, not after a learner trains.
    for models in (Path(c.output_dir) / "models" for c in configs if c.output_dir):
        try:
            models.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write {models}: {exc}") from exc

    def job(task: tuple[ExperimentConfig, int]) -> tuple[np.ndarray, np.ndarray, list]:
        """Train, predict and save learner j of `config` through its plan's row
        index into the one read-only train block; returns its probabilities and
        its own spans. A non-finite weight or probability raises before saving."""
        config, j = task
        job_spans: list = []
        plan = _plan(config, train.n_samples)
        rows = None if plan is None else materialize(plan, j)
        cfg = config.mlp_config(train.n_features, train.n_classes, config.learner_seed(j))
        with _stage(f"training learner {j}", job_spans):
            model = mlp.train(mlp.init(cfg), train.features, train.labels, rows=rows)
        with _stage("predicting", job_spans):
            probs = (mlp.predict_proba(model, train.features),
                     mlp.predict_proba(model, test.features))
        if not all_finite(*model.weights, *model.biases, *probs):
            raise TrainingDivergenceError(
                f"learner {j}: non-finite weights or probabilities after training")
        if config.output_dir:
            with _stage(f"training learner {j}", job_spans):
                mlp.save(model, Path(config.output_dir) / "models" / f"learner_{j}.mlp")
        return (*probs, job_spans)

    workers = configs[0].workers
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        blocks = (pool.map if pool else map)(
            job, [(c, j) for c in configs for j in range(c.n_learners)])
        return tuple(_run(config, train, test, label, spans if i == 0 else [],
                          list(islice(blocks, config.n_learners)))
                     for i, config in enumerate(configs))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _run(config: ExperimentConfig, train: Dataset, test: Dataset, label: str,
         spans: list, blocks: list) -> RunReport:
    """Fuse one run's learner blocks, each a job's (train probabilities, test
    probabilities, spans), and report; the timings sum each stage's spans,
    the jobs' and those already in `spans` included."""
    n = config.n_learners
    with _stage("planning resamples", spans):
        plan = _plan(config, train.n_samples)
    spans.extend(span for _, _, job_spans in blocks for span in job_spans)
    with _stage("predicting", spans):
        # PredictionMatrix stacks the per-learner blocks in its one copy.
        pm_train, pm_test = (PredictionMatrix([b[k] for b in blocks]) for k in (0, 1))
    blocks.clear()  # only the stacked copies outlive this stage

    per_learner = tuple(np.mean(pm_test.votes() == test.labels, axis=1).tolist())
    mean_accuracy = sum(per_learner) / n

    outcomes: dict[str, fusion.FusionOutcome] = {}
    with _stage("fusing", spans):
        if STRATEGY_AVERAGE in config.strategies:
            outcomes[STRATEGY_AVERAGE] = fusion.model_average(pm_test)
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
            if config.output_dir and fitted.meta_model is not None:
                boosting.save(fitted.meta_model, Path(config.output_dir) / "models" / model_file)
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
        strategy_accuracies={name: float(np.mean(o.decisions == test.labels))
                             for name, o in outcomes.items()},
        rejected_count=majority.rejected_count if majority is not None else 0,
        route_counts=filtered.route_counts() if filtered is not None else {},
        warnings=tuple(w for o in outcomes.values() for w in o.warnings),
        decisions={name: tuple(o.decisions.tolist()) for name, o in outcomes.items()},
        # The one place route codes become the names artifacts carry.
        routes={name: (None if o.routes is None
                       else tuple(fusion.ROUTES[c] for c in o.routes.tolist()))
                for name, o in outcomes.items()},
        config=config.to_dict(),
        timings=timings,
        plan_manifest=plan.to_manifest() if plan is not None else None,
    )


def sweep(config: ExperimentConfig, max_size: int,
          dataset: Dataset | None = None) -> tuple[RunReport, ...]:
    """Run the experiment at every ensemble size 1..max_size, shared seed;
    returns one report per size, in order.

    The data is loaded, split and normalized once and shared by every size;
    those stages' spans go to size 1's timings. Each size uses its own
    default filter threshold (size-1, floored at 1) and, when an output
    directory is set, its own size_<k> subdirectory; an earlier sweep's
    models in size_<k> for k > max_size are deleted.
    """
    max_size = conform(max_size, COUNT, "sweep max_size")
    spans: list = []
    train, test, label = _prepare(config, dataset, spans)
    out = Path(config.output_dir) if config.output_dir else None
    stale = tuple(old for old in (out.glob("size_*") if out else ())
                  if re.fullmatch(r"size_\d+", old.name)
                  and int(old.name.removeprefix("size_")) > max_size)
    configs = [replace(config, n_learners=size, threshold=None,
                       strategies=(*config.strategies, STRATEGY_FILTERED),
                       output_dir=str(out / f"size_{size}") if out else None)
               for size in range(1, max_size + 1)]
    return _run_all(configs, train, test, label, spans, stale)


def _csv(rows) -> str:
    """rows as CSV text, quoted as csv does, so a label holding a comma, quote
    or line break stays one cell."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(directory: str | Path, files: dict[str, tuple[str, str]]) -> dict[str, Path]:
    """Write each key's (file name, text) into `directory`, in order, through
    atomic_write; returns the paths by key."""
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = Path(directory) / name
        with atomic_write(paths[key]) as fh:
            fh.write(text.encode("utf-8"))
    return paths


def emit_report(report: RunReport, directory: str | Path) -> dict[str, Path]:
    """Write the run artifacts; returns the paths keyed by artifact name.

    report.json holds every report field; accuracy_table.csv is the one-row
    strategy summary (plurality | meta | filtered columns); decisions.csv
    lists every per-sample decision with its route; manifest.json records
    config, seeds, and tool version for exact re-runs.
    """
    table = (STRATEGY_PLURALITY, STRATEGY_META, STRATEGY_FILTERED)
    accuracies = report.strategy_accuracies
    cells = [repr(accuracies[s]) if s in accuracies else "" for s in table]
    decisions = [(name, i, decision, route) for name, ds in report.decisions.items()
                 for i, (decision, route)
                 in enumerate(zip(ds, report.routes.get(name) or ("",) * len(ds)))]
    manifest = {
        "tool": __about__.TOOL_NAME,
        "version": __about__.__version__,
        "seed": report.seed,
        "learner_seeds": list(report.learner_seeds),
        "plan": report.plan_manifest,
        "config": report.config,
    }
    return _write(directory, {
        "report": ("report.json", _json(report.to_dict())),
        "accuracy_table": ("accuracy_table.csv",
                           _csv([("dataset", *table), (report.dataset_label, *cells)])),
        "decisions": ("decisions.csv",
                      _csv([("strategy", "sample_id", "decision", "route"), *decisions])),
        "manifest": ("manifest.json", _json(manifest)),
    })


def emit_sweep(reports: tuple[RunReport, ...], directory: str | Path) -> dict[str, Path]:
    """Write a sweep's reports: sweep.csv holds one (size, filtered, mean
    individual accuracy) row per report; sweep.json holds the master seed,
    those rows and every report."""
    rows = [(r.n_learners, r.strategy_accuracies[STRATEGY_FILTERED], r.mean_accuracy)
            for r in reports]
    payload = {"seed": reports[0].seed, "rows": rows,
               "reports": [r.to_dict() for r in reports]}
    return _write(directory, {
        "sweep_csv": ("sweep.csv", _csv([("size", "filtered", "mean_individual"), *rows])),
        "sweep_json": ("sweep.json", _json(payload)),
    })
