"""Decision fusion over a stack of per-learner probability predictions.

Implements averaging (uniform and weighted), plurality voting, strict
majority voting with rejection, and vote-filtered stacking: test samples
where at least `threshold` learners agree take the voted label directly,
everything else is scored by a meta-learner trained on the difficult
training instances only. Plain stacking is the same filter at threshold
n+1, where no vote is confident: the meta-learner trains on every row and
scores every sample. Ties break toward the lowest class index everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boosting
from .errors import ConfigError, ContractError, DataError
from .numerics import all_finite, frozen_copy

REJECTED = -1

ROUTE_CONFIDENT = "confident-vote"
ROUTE_META = "meta-learner"
ROUTE_FALLBACK = "fallback"
# FusionOutcome.routes holds int8 codes: code k is the route named ROUTES[k].
ROUTES = (ROUTE_CONFIDENT, ROUTE_META, ROUTE_FALLBACK)
_CONFIDENT, _META, _FALLBACK = range(len(ROUTES))

VARIANCE_FLOOR = 1e-12

LEVEL1_PROBA = "proba"
LEVEL1_LABEL = "label"


@dataclass(frozen=True)
class PredictionMatrix:
    """n_learners x n_samples x n_classes tensor of class probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        probs = frozen_copy(self.probs, np.float64)
        if probs.ndim != 3:
            raise ContractError(
                f"prediction matrix must be 3-D (learners, samples, classes), got {probs.shape}"
            )
        if probs.shape[2] < 2:
            raise ContractError("prediction matrix needs at least 2 classes")
        if 0 in probs.shape[:2]:
            raise ContractError("prediction matrix needs at least one learner and one sample")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not (probs.min() >= 0.0 and probs.max() <= 1.0 + 1e-9):
            raise ContractError("probabilities must be finite and lie in [0, 1]")
        sums = probs.sum(axis=2)
        sums -= 1.0
        if np.abs(sums, out=sums).max() > 1e-9:
            raise ContractError("every probability row must sum to 1 within 1e-9")
        object.__setattr__(self, "probs", probs)

    @property
    def n_learners(self) -> int:
        return self.probs.shape[0]

    @property
    def n_samples(self) -> int:
        return self.probs.shape[1]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[2]

    def votes(self) -> np.ndarray:
        """Per-learner argmax labels, shape (n_learners, n_samples)."""
        return np.argmax(self.probs, axis=2)


@dataclass(frozen=True)
class WeightVector:
    """Non-negative learner weights normalized to sum 1."""

    values: np.ndarray

    def __post_init__(self):
        values = frozen_copy(self.values, np.float64)
        if values.ndim != 1:
            raise ContractError("weights must be a vector")
        if not (all_finite(values) and np.all(values >= 0)):
            raise ContractError("weights must be finite and non-negative")
        if abs(values.sum() - 1.0) > 1e-12:
            raise ContractError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "values", values)

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class FusionOutcome:
    """Per-sample fused decisions (REJECTED (-1) only from strict majority);
    the stacking strategies add one route code per sample, indexing ROUTES."""

    decisions: np.ndarray
    routes: np.ndarray | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        decisions = frozen_copy(self.decisions, np.int64)
        object.__setattr__(self, "decisions", decisions)
        if self.routes is not None:
            codes = np.asarray(self.routes)
            if codes.shape != decisions.shape:
                raise ContractError("route codes must match decision count")
            if codes.size and not (np.issubdtype(codes.dtype, np.integer)
                                   and codes.min() >= 0 and codes.max() < len(ROUTES)):
                raise ContractError(f"route codes must be integers in [0, {len(ROUTES)})")
            object.__setattr__(self, "routes", frozen_copy(codes, np.int8))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def n_samples(self) -> int:
        return self.decisions.shape[0]

    @property
    def rejected_count(self) -> int:
        return int(np.sum(self.decisions == REJECTED))

    def route_counts(self) -> dict[str, int]:
        """Samples per route name; all zero when no routes are set."""
        codes = self.routes if self.routes is not None else np.zeros(0, np.int8)
        return dict(zip(ROUTES, np.bincount(codes, minlength=len(ROUTES)).tolist()))


@dataclass(frozen=True)
class VarianceReport:
    """Spread of individual learner outputs versus the ensemble mean output."""

    mean_individual_variance: float
    ensemble_variance: float
    ratio: float
    n_learners: int


def tally(pm: PredictionMatrix) -> np.ndarray:
    """Per-sample label counts, shape (n_samples, n_classes); rows sum to n."""
    return (pm.votes()[:, :, None] == np.arange(pm.n_classes)).sum(axis=0)


def model_average(pm: PredictionMatrix,
                  weights: WeightVector | None = None) -> FusionOutcome:
    """Argmax of the (weighted) sum of predicted probabilities per sample."""
    if weights is None:
        weights = WeightVector.uniform(pm.n_learners)
    w = weights.values
    if w.shape != (pm.n_learners,):
        raise ContractError(
            f"expected {pm.n_learners} weights, got shape {w.shape}"
        )
    fused = np.tensordot(w, pm.probs, axes=(0, 0))
    return FusionOutcome(decisions=np.argmax(fused, axis=1))


def weights_from_accuracy(accuracies) -> WeightVector:
    """Weights proportional to per-learner accuracies."""
    acc = np.asarray(accuracies, dtype=np.float64)
    if not np.all((acc >= 0) & (acc <= 1)):
        raise ContractError("accuracies must be finite and lie in [0, 1]")
    total = acc.sum()
    if total <= 0:
        raise DataError("all learner accuracies are zero")
    return WeightVector(acc / total)


def weights_from_inverse_variance(variances) -> WeightVector:
    """Weights proportional to 1/variance, variances floored at 1e-12."""
    var = np.maximum(np.asarray(variances, dtype=np.float64), VARIANCE_FLOOR)
    inv = 1.0 / var
    return WeightVector(inv / inv.sum())


def plurality_vote(pm: PredictionMatrix) -> FusionOutcome:
    """Most frequent argmax label per sample; lowest class index on ties."""
    return FusionOutcome(decisions=np.argmax(tally(pm), axis=1))


def majority_vote(pm: PredictionMatrix) -> FusionOutcome:
    """Label with more than half the votes, else the sample is Rejected."""
    counts = tally(pm)
    top = np.argmax(counts, axis=1)
    decisions = np.where(counts.max(axis=1) * 2 > pm.n_learners, top, REJECTED)
    return FusionOutcome(decisions=decisions)


def _level1_features(pm: PredictionMatrix, mode: str = LEVEL1_PROBA,
                     rows=None) -> np.ndarray:
    """Meta-learner inputs of the samples `rows` (every sample when None).

    "proba" concatenates the n probability vectors in learner-major order
    (column j*C + c holds learner j's probability for class c); "label"
    uses the n hard argmax labels instead. The selected rows are built once,
    as a read-only C-contiguous (columns, samples) block, and returned as its
    transpose: `boosting.fit` reads that block's rows as its feature columns
    without another copy.
    """
    rows = np.arange(pm.n_samples) if rows is None else rows
    if mode == LEVEL1_PROBA:
        C = pm.n_classes
        block = np.empty((pm.n_learners * C, len(rows)))
        for j in range(pm.n_learners):
            np.take(pm.probs[j], rows, axis=0, out=block[j * C:(j + 1) * C].T)
    elif mode == LEVEL1_LABEL:
        block = np.take(pm.votes(), rows, axis=1).astype(np.float64)
    else:
        raise ConfigError(f"unknown level-1 feature mode {mode!r}")
    block.setflags(write=False)
    return block.T


@dataclass(frozen=True)
class FilteredFusion:
    """Fitted state of the vote-filter + meta-learner pipeline."""

    threshold: int
    meta_model: boosting.BoostedModel | None
    level1_mode: str
    n_difficult: int
    warnings: tuple[str, ...] = ()


def fit_filtered(pm_train: PredictionMatrix, train_labels,
                 config: boosting.BoostConfig, threshold: int,
                 mode: str = LEVEL1_PROBA) -> FilteredFusion:
    """Fit the meta-learner on training instances that fail the vote filter.

    Instances whose top vote count reaches the threshold are excluded; the
    meta-learner sees difficult cases only. Above n_learners no vote is
    confident, which is plain stacking. If no instance remains (or they all
    share one class) meta fitting is skipped and application falls back to
    plurality voting for unfiltered samples.
    """
    labels = np.asarray(train_labels, dtype=np.int64)
    if labels.shape != (pm_train.n_samples,):
        raise ContractError("train labels must match the prediction matrix samples")
    if threshold < 1:
        raise ConfigError(f"filter threshold must be at least 1, got {threshold}")
    difficult = tally(pm_train).max(axis=1) < threshold
    n_difficult = int(difficult.sum())
    hard_labels = labels[difficult]
    # An empty difficult set has fewer than two classes too.
    if np.unique(hard_labels).size < 2:
        reason = (f"no difficult training instances at threshold {threshold}"
                  if n_difficult == 0 else
                  "difficult training instances all share one class")
        return FilteredFusion(
            threshold=threshold, meta_model=None, level1_mode=mode,
            n_difficult=n_difficult,
            warnings=(f"{reason}; residual test samples fall back to plurality voting",),
        )
    meta = boosting.fit(
        _level1_features(pm_train, mode, np.flatnonzero(difficult)), hard_labels, config,
        n_classes=pm_train.n_classes,
    )
    return FilteredFusion(
        threshold=threshold, meta_model=meta, level1_mode=mode, n_difficult=n_difficult,
    )


def apply_filtered(fitted: FilteredFusion, pm_test: PredictionMatrix) -> FusionOutcome:
    """Route test samples: confident votes directly, the rest to the meta-learner."""
    counts = tally(pm_test)
    confident = counts.max(axis=1) >= fitted.threshold
    decisions = np.argmax(counts, axis=1)
    residual = ~confident
    if fitted.meta_model is not None and residual.any():
        feats = _level1_features(pm_test, fitted.level1_mode, np.flatnonzero(residual))
        decisions[residual] = boosting.predict_label(fitted.meta_model, feats)
    residual_route = _FALLBACK if fitted.meta_model is None else _META
    return FusionOutcome(
        decisions=decisions, routes=np.where(confident, _CONFIDENT, residual_route),
        warnings=fitted.warnings,
    )


def variance_report(outputs) -> VarianceReport:
    """Mean per-learner output variance vs. variance of the ensemble mean.

    Accepts a PredictionMatrix or a raw (n_learners, n_samples[, n_outputs])
    array of synthetic learner outputs. Variances are taken across samples
    and averaged over output coordinates.
    """
    arr = outputs.probs if isinstance(outputs, PredictionMatrix) else np.asarray(
        outputs, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ContractError("expected (learners, samples[, outputs]) array")
    if arr.shape[1] < 2:
        raise DataError("variance needs at least 2 samples")
    mean_individual = float(arr.var(axis=1).mean())
    ensemble = float(arr.mean(axis=0).var(axis=0).mean())
    ratio = 1.0 if mean_individual == 0.0 else ensemble / mean_individual
    return VarianceReport(
        mean_individual_variance=mean_individual,
        ensemble_variance=ensemble,
        ratio=ratio,
        n_learners=arr.shape[0],
    )


def outcome_accuracy(outcome: FusionOutcome, labels) -> float:
    """Fraction of correct decisions; Rejected samples count as errors."""
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != outcome.decisions.shape:
        raise ContractError("labels must match decision count")
    return float(np.mean(outcome.decisions == y))
