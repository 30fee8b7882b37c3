"""Gradient-boosted regression trees for multiclass classification.

Second-order boosting with exact greedy split search over presorted
columns: per round a tree is grown for every class from the softmax
gradients/hessians at the current margins, leaf weights are the
L2-regularized Newton step -G/(H+lambda), and margins accumulate
shrinkage-scaled leaf values. Each column is sorted once per fit; a node
filters that order down to its rows and scores every (feature, threshold)
candidate in one array pass. Small-scale on purpose: no histograms, no
column subsampling, no sparsity handling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .numerics import cross_entropy, softmax
from .serialize import parsing_header, read_model_file, write_model_file

GBT_MAGIC = b"VSTKGBT\x00"
GBT_FORMAT_VERSION = 2

_NO_FEATURE = -1


@dataclass(frozen=True)
class BoostConfig:
    rounds: int = 50
    max_depth: int = 3
    learning_rate: float = 0.3
    l2_lambda: float = 1.0
    min_child_weight: float = 1.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("rounds must be at least 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be at least 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.l2_lambda < 0:
            raise ConfigError("l2_lambda must be non-negative")
        if self.min_child_weight < 0:
            raise ConfigError("min_child_weight must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BoostConfig":
        return cls(**d)


@dataclass
class RegressionTree:
    """Structure-of-arrays binary tree; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Unshrunk leaf value for every row (vectorized descent)."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] != _NO_FEATURE
        while active.any():
            rows = np.flatnonzero(active)
            at = node[rows]
            go_left = X[rows, self.feature[at]] < self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            active = self.feature[node] != _NO_FEATURE
        return self.leaf_value[node]

    def to_matrix(self) -> np.ndarray:
        return np.column_stack([
            self.feature.astype(np.float64),
            self.threshold,
            self.left.astype(np.float64),
            self.right.astype(np.float64),
            self.leaf_value,
        ])

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "RegressionTree":
        return cls(
            feature=mat[:, 0].astype(np.int64),
            threshold=mat[:, 1].copy(),
            left=mat[:, 2].astype(np.int64),
            right=mat[:, 3].astype(np.int64),
            leaf_value=mat[:, 4].copy(),
        )


@dataclass
class BoostedModel:
    """rounds x n_classes trees plus the training-loss trace."""

    config: BoostConfig
    n_features: int
    n_classes: int
    trees: list[list[RegressionTree]]
    loss_trace: list[float] = field(default_factory=list)


def _best_split(xs: np.ndarray, gs: np.ndarray, hs: np.ndarray, G: float, H: float,
                lam: float, min_child_weight: float):
    """Exact greedy search over all (feature, threshold) candidates at once.

    Row f of the (F, n) arrays xs, gs and hs holds the node's values of
    feature f and their gradients and hessians, in ascending (value, row)
    order; G and H are the node's gradient and hessian sums. Returns
    (gain, feature, threshold) for the best valid split or None. Ties
    resolve to the first feature, then the first sorted position, keeping
    fits deterministic.
    """
    gl = np.cumsum(gs[:, :-1], axis=1).ravel()
    hl = np.cumsum(hs[:, :-1], axis=1).ravel()
    hr = H - hl
    # A side with zero hessian and zero lambda would score 0/0.
    valid = ((xs[:, 1:] > xs[:, :-1]).ravel()
             & (hl >= min_child_weight) & (hr >= min_child_weight)
             & (hl + lam > 0) & (hr + lam > 0))
    candidates = np.flatnonzero(valid)
    if candidates.size == 0:
        return None
    gl, hl, hr = gl[candidates], hl[candidates], hr[candidates]
    gr = G - gl
    gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam))
    best = int(np.argmax(gain))
    f, k = divmod(int(candidates[best]), xs.shape[1] - 1)
    return float(gain[best]), f, float((xs[f, k] + xs[f, k + 1]) / 2.0)


def _grow_tree(columns: np.ndarray, order: np.ndarray, g: np.ndarray, h: np.ndarray,
               config: BoostConfig) -> RegressionTree:
    """Grow one tree on the (F, S) feature columns; row f of order is the
    stable argsort of column f."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_value: list[float] = []

    def new_node() -> int:
        feature.append(_NO_FEATURE)
        threshold.append(0.0)
        left.append(_NO_FEATURE)
        right.append(_NO_FEATURE)
        leaf_value.append(0.0)
        return len(feature) - 1

    lam = config.l2_lambda

    def build(rows: np.ndarray, node_order: np.ndarray, depth: int) -> int:
        # rows ascends; row f of node_order holds the same rows sorted by
        # feature f, so the node sums keep the order of g[rows].sum().
        node = new_node()
        G, H = g[rows].sum(), h[rows].sum()
        if depth < config.max_depth and rows.size >= 2:
            found = _best_split(np.take_along_axis(columns, node_order, axis=1),
                                g[node_order], h[node_order], G, H, lam,
                                config.min_child_weight)
            # Zero-gain splits are accepted: symmetric patterns (e.g. an
            # exclusive-or layout at uniform margins) only pay off a level
            # deeper, and the depth bound caps the cost.
            if found is not None and found[0] >= 0.0:
                _, f, thr = found
                mask = columns[f, rows] < thr
                if mask.any() and not mask.all():
                    # A stable filter keeps each child's rows in sorted order.
                    in_left = np.zeros(columns.shape[1], dtype=bool)
                    in_left[rows[mask]] = True
                    goes_left = in_left[node_order]
                    n_features = node_order.shape[0]
                    feature[node] = f
                    threshold[node] = thr
                    left[node] = build(rows[mask],
                                       node_order[goes_left].reshape(n_features, -1),
                                       depth + 1)
                    right[node] = build(rows[~mask],
                                        node_order[~goes_left].reshape(n_features, -1),
                                        depth + 1)
                    return node
        leaf_value[node] = float(-G / (H + lam))
        return node

    build(np.arange(columns.shape[1]), order, 0)
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        leaf_value=np.asarray(leaf_value, dtype=np.float64),
    )


def fit(features: np.ndarray, labels: np.ndarray, config: BoostConfig,
        n_classes: int | None = None) -> BoostedModel:
    """Boost rounds x n_classes trees from zero base margins.

    Gradients and hessians for all classes are taken at the margins as of
    the round start, so per-class fits within a round are independent.
    Labels must be dense class indices; pass n_classes explicitly when the
    training subset might not contain every class.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ContractError("features must be a 2-D matrix with at least one column")
    if X.shape[0] != y.shape[0]:
        raise ContractError("features and labels must agree on sample count")
    if X.shape[0] < 2:
        raise ConfigError("boosting needs at least 2 samples")
    distinct = np.unique(y)
    if distinct.size < 2:
        raise ConfigError("boosting needs at least 2 distinct labels")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    if n_classes < 2 or y.max() >= n_classes:
        raise ContractError("labels exceed the declared class count")

    S = X.shape[0]
    margins = np.zeros((S, n_classes))
    onehot = np.zeros((S, n_classes))
    onehot[np.arange(S), y] = 1.0

    # Column-block presort (Chen & Guestrin, KDD 2016, sec. 4.1): X never
    # changes during a fit, so every tree filters this one order.
    columns = np.ascontiguousarray(X.T)
    order = np.argsort(columns, axis=1, kind="stable")
    trees: list[list[RegressionTree]] = []
    loss_trace = [cross_entropy(softmax(margins), y)]
    for _ in range(config.rounds):
        probs = softmax(margins)
        grad = probs - onehot
        hess = probs * (1.0 - probs)
        round_trees = [
            _grow_tree(columns, order, grad[:, c], hess[:, c], config)
            for c in range(n_classes)
        ]
        for c, tree in enumerate(round_trees):
            margins[:, c] += config.learning_rate * tree.predict(X)
        trees.append(round_trees)
        loss_trace.append(cross_entropy(softmax(margins), y))

    return BoostedModel(
        config=config,
        n_features=X.shape[1],
        n_classes=n_classes,
        trees=trees,
        loss_trace=loss_trace,
    )


def predict_margins(model: BoostedModel, features: np.ndarray) -> np.ndarray:
    """Shrinkage-scaled leaf sums over all trees, from a zero base score."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ContractError(
            f"model expects {model.n_features} features, got shape {X.shape}"
        )
    margins = np.zeros((X.shape[0], model.n_classes))
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            margins[:, c] += model.config.learning_rate * tree.predict(X)
    return margins


def predict_proba(model: BoostedModel, features: np.ndarray) -> np.ndarray:
    return softmax(predict_margins(model, features))


def predict_label(model: BoostedModel, features: np.ndarray) -> np.ndarray:
    """Per-row argmax; ties break toward the lowest class index."""
    return np.argmax(predict_proba(model, features), axis=1)


def save(model: BoostedModel, path: str | Path) -> Path:
    header = {
        "config": model.config.to_dict(),
        "n_features": model.n_features,
        "n_classes": model.n_classes,
        "rounds": len(model.trees),
        "loss_trace": model.loss_trace,
    }
    arrays = [tree.to_matrix() for round_trees in model.trees for tree in round_trees]
    return write_model_file(path, GBT_MAGIC, GBT_FORMAT_VERSION, header, arrays)


def load(path: str | Path) -> BoostedModel:
    header, arrays = read_model_file(path, GBT_MAGIC, GBT_FORMAT_VERSION)
    with parsing_header(path):
        config = BoostConfig.from_dict(header["config"])
        n_features = int(header["n_features"])
        n_classes = int(header["n_classes"])
        rounds = int(header["rounds"])
        loss_trace = [float(v) for v in header.get("loss_trace", [])]
    if min(n_features, n_classes, rounds) < 1:
        raise DataError(f"{path}: n_features, n_classes and rounds must be positive")
    if len(arrays) != rounds * n_classes:
        raise DataError(f"{path}: tree count does not match the stored round/class grid")
    trees = [
        [RegressionTree.from_matrix(arrays[r * n_classes + c]) for c in range(n_classes)]
        for r in range(rounds)
    ]
    return BoostedModel(
        config=config,
        n_features=n_features,
        n_classes=n_classes,
        trees=trees,
        loss_trace=loss_trace,
    )
