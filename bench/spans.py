"""In-memory span recorder and the per-layer numbers derived from it.

Spans are created from outside the package: `instrument` replaces the
public functions the harness, fusion and CLI call with timing wrappers, in
every `votestack` module namespace that binds them (so names imported with
`from x import y` are covered too), and puts the originals back on exit.
Each span records name, start, end, parent span, operation id and thread.
Parents are tracked per thread, so spans of parallel learner training on
worker threads never nest under one another.

A layer is the part of a span name before the dot. A span's layer self
time is its duration minus the time of its nearest descendants that belong
to another layer; summed over the spans that enter a layer, these times
partition each thread's traced time by layer. The harness's self time
excludes the time its thread waits on learners training on worker threads.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    notes: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; `op` tags the operation in flight."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None):
        """`fn` recording a span per call; `note(args, kwargs, result)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
                index = len(self.spans)
                span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op, thread)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.notes = note(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "thread": s.thread, **s.notes}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _note_train(args, kwargs, model):
    rows = len(_arg(args, kwargs, 2, "labels"))
    cfg = model.config
    steps = cfg.epochs * -(-rows // cfg.batch_size)
    # Computed from layer sizes, not counted: backward costs two forwards.
    return {"rows": rows, "steps": steps,
            "flops": 3 * forward_flops_per_row(cfg.layer_sizes) * rows * cfg.epochs}


def _note_predict(args, kwargs, probs):
    return {"rows": int(probs.shape[0])}


def _note_boost_fit(args, kwargs, model):
    return {"rows": len(_arg(args, kwargs, 1, "labels")),
            "trees": len(model.trees) * model.n_classes}


def _note_load_csv(args, kwargs, dataset):
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


def _note_fit_filtered(args, kwargs, fitted):
    return {"difficult": fitted.n_difficult,
            "train_rows": _arg(args, kwargs, 0, "pm_train").n_samples}


def _note_apply_filtered(args, kwargs, outcome):
    from votestack.fusion import ROUTE_CONFIDENT

    counts = outcome.route_counts()
    return {"residual": outcome.n_samples - counts[ROUTE_CONFIDENT],
            "test_rows": outcome.n_samples}


def forward_flops_per_row(layer_sizes) -> int:
    """2 * sum(fan_in * fan_out): one multiply and one add per weight."""
    return 2 * sum(a * b for a, b in zip(layer_sizes, layer_sizes[1:]))


def _targets():
    from votestack import boosting, diversify, fusion, harness, mlp, tabular

    public_fusion = [
        name for name, obj in vars(fusion).items()
        if inspect.isfunction(obj) and obj.__module__ == fusion.__name__
        and not name.startswith("_")
    ]
    notes = {
        "mlp.train": _note_train, "mlp.predict_proba": _note_predict,
        "boosting.fit": _note_boost_fit, "tabular.load_csv": _note_load_csv,
        "fusion.fit_filtered": _note_fit_filtered,
        "fusion.apply_filtered": _note_apply_filtered,
    }
    table = [
        (mlp, ("init", "train", "predict_proba", "save")),
        (boosting, ("fit", "predict_label", "save")),
        (fusion, public_fusion),
        (tabular, ("load_csv", "split", "fit_normalizer", "apply_normalizer")),
        (diversify, ("build_plan", "materialize", "out_of_bag")),
        (harness, ("run_experiment", "sweep", "emit_report", "emit_sweep")),
    ]
    for module, attrs in table:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr in attrs:
            name = f"{layer}.{attr}"
            yield getattr(module, attr), name, notes.get(name)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call of the traced functions through `tracer`."""
    owners = [m for n, m in sorted(sys.modules.items())
              if (n == "votestack" or n.startswith("votestack.")) and m is not None]
    restore = []
    try:
        for fn, name, note in _targets():
            wrapped = tracer.wrap(name, fn, note)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapped)
                        restore.append((owner, key, fn))
        yield
    finally:
        for owner, key, fn in reversed(restore):
            setattr(owner, key, fn)


def layer_self_times(spans: list[Span]) -> list[tuple[Span, float]]:
    """(span, layer self time) for every span that enters its layer."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)

    def foreign(i: int) -> float:
        layer = spans[i].layer
        total = 0.0
        for c in children[i]:
            total += spans[c].duration if spans[c].layer != layer else foreign(c)
        return total

    return [
        (s, s.duration - foreign(i)) for i, s in enumerate(spans)
        if s.parent is None or spans[s.parent].layer != s.layer
    ]


def worker_wait(spans: list[Span]) -> float:
    """Seconds the first span's thread spent blocked on other threads' spans.

    While learners train on worker threads the calling thread only waits,
    so the union of the worker spans' intervals is its waiting time.
    """
    if not spans:
        return 0.0
    busy = sorted((s.start, s.end) for s in spans if s.thread != spans[0].thread)
    total, reach = 0.0, float("-inf")
    for start, end in busy:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def op_layer_metrics(all_spans: list[Span], op: int) -> dict[str, float]:
    """Per-layer numbers for the spans of operation `op`."""
    entries = [(s, t) for s, t in layer_self_times(all_spans) if s.op == op]
    spans = [s for s in all_spans if s.op == op]

    def self_s(*names: str) -> float:
        return sum(t for s, t in entries if s.name in names)

    def notes(name: str, key: str) -> int:
        return sum(s.notes.get(key, 0) for s in spans if s.name == name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    train = [s.duration for s in spans if s.name == "mlp.train"]
    fits = [s.duration for s in spans if s.name == "boosting.fit"]
    train_s = self_s("mlp.train")
    fit_s = self_s("boosting.fit")
    predict_s = self_s("mlp.predict_proba")
    load_s = self_s("tabular.load_csv")
    return {
        "mlp.train_s": train_s,
        "mlp.train_steps": notes("mlp.train", "steps"),
        "mlp.step_ms": 1e3 * ratio(train_s, notes("mlp.train", "steps")),
        "mlp.train_gflops_computed": 1e-9 * ratio(notes("mlp.train", "flops"), train_s),
        "mlp.train_p50_s": statistics.median(train) if train else 0.0,
        "mlp.train_max_s": max(train, default=0.0),
        "mlp.predict_s": predict_s,
        "mlp.predict_rows_per_s": ratio(notes("mlp.predict_proba", "rows"), predict_s),
        "mlp.save_s": self_s("mlp.save"),
        "boosting.fit_s": fit_s,
        "boosting.fit_calls": len(fits),
        "boosting.fit_max_s": max(fits, default=0.0),
        "boosting.fit_rows": notes("boosting.fit", "rows"),
        "boosting.trees": notes("boosting.fit", "trees"),
        "boosting.tree_ms": 1e3 * ratio(fit_s, notes("boosting.fit", "trees")),
        "boosting.predict_s": self_s("boosting.predict_label"),
        "boosting.save_s": self_s("boosting.save"),
        "tabular.load_csv_s": load_s,
        "tabular.load_csv_calls": sum(1 for s in spans if s.name == "tabular.load_csv"),
        "tabular.load_csv_mb_per_s": 1e-6 * ratio(notes("tabular.load_csv", "bytes"), load_s),
        "tabular.prepare_s": self_s("tabular.split", "tabular.fit_normalizer",
                                    "tabular.apply_normalizer"),
        "diversify.materialize_s": self_s("diversify.materialize"),
        "fusion.fit_meta_self_s": self_s("fusion.fit_meta"),
        "fusion.fit_filtered_self_s": self_s("fusion.fit_filtered"),
        "fusion.apply_filtered_s": self_s("fusion.apply_filtered"),
        "fusion.vote_s": self_s("fusion.plurality_vote", "fusion.majority_vote",
                                "fusion.model_average"),
        "fusion.difficult_frac": ratio(notes("fusion.fit_filtered", "difficult"),
                                       notes("fusion.fit_filtered", "train_rows")),
        "fusion.residual_frac": ratio(notes("fusion.apply_filtered", "residual"),
                                      notes("fusion.apply_filtered", "test_rows")),
        "harness.run_self_s": self_s("harness.run_experiment", "harness.sweep")
                              - worker_wait(spans),
        "harness.emit_s": self_s("harness.emit_report", "harness.emit_sweep"),
    }


def self_time_table(all_spans: list[Span], op: int) -> dict[tuple[int, str], float]:
    """Layer self time of operation `op`, summed per (thread, span name)."""
    table: dict[tuple[int, str], float] = defaultdict(float)
    for s, t in layer_self_times(all_spans):
        if s.op == op:
            table[(s.thread, s.name)] += t
    return dict(table)
