"""Gradient-boosted regression trees for multiclass classification.

Second-order boosting with exact greedy split search over presorted
columns: per round a tree is grown for every class from the softmax
gradients/hessians at the current margins, leaf weights are the
L2-regularized Newton step -G/(H+lambda), and margins accumulate
shrinkage-scaled leaf values. Each column is sorted once per fit; a node
filters that order down to its rows and scores every (feature, threshold)
candidate. Small-scale on purpose: no histograms, no column subsampling, no
sparsity handling.

A node's candidates are scored, and its children's orders filtered, in
blocks of whole features of at most `_BLOCK_ENTRIES` cells, so a block's
working set stays in the L2 cache (the cache-aware blocks of Chen &
Guestrin, KDD 2016, sec. 4.2). A fit allocates one `_Scratch`: block-sized
prefix sums, gains and masks, plus the children's orders per depth, which
are F x S like the column copy and the presort. Nothing F x n is allocated
per node; `np.compress`'s internal index is one block's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .numerics import all_finite, cross_entropy, softmax, spans
from .serialize import parsing_header, read_model_file, write_model_file

GBT_MAGIC = b"VSTKGBT\x00"
GBT_FORMAT_VERSION = 2

_NO_FEATURE = -1
# Candidates scored per block of the split search: one block's four float
# arrays and two masks (34 B per cell, about 1.1 MB) stay inside a 2 MB L2.
_BLOCK_ENTRIES = 32 * 1024


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
        # Stated so that NaN, which fails every comparison, fails each check.
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if not 0 <= self.l2_lambda < math.inf:
            raise ConfigError("l2_lambda must be non-negative and finite")
        if not 0 <= self.min_child_weight < math.inf:
            raise ConfigError("min_child_weight must be non-negative and finite")


class RegressionTree:
    """One tree as the (nodes, 5) float64 table `.gbt` stores: nodes in
    preorder; columns feature (-1 marks a leaf), threshold, left, right and
    leaf value."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.feature, self.left, self.right = (table[:, i].astype(np.int64) for i in (0, 2, 3))
        self.threshold, self.leaf_value = table[:, 1], table[:, 4]

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


@dataclass
class BoostedModel:
    """rounds x n_classes trees plus the training-loss trace."""

    config: BoostConfig
    n_features: int
    n_classes: int
    trees: list[list[RegressionTree]]
    loss_trace: list[float] = field(default_factory=list)


class _Scratch:
    """Work arrays of one fit, reused by every node (see the module notes)."""

    def __init__(self, n_features: int, n_samples: int, max_depth: int):
        size = n_features * n_samples
        block = min(size, max(_BLOCK_ENTRIES, n_samples))
        self.gl, self.hl, self.hr, self.gain = (np.empty(block) for _ in range(4))
        self.index = self.gl.view(np.int64)  # the take index, spent before gl is written
        self.valid, self.mask = np.empty(block, dtype=bool), np.empty(block, dtype=bool)
        self.offsets = np.arange(0, size, n_samples)[:, None]
        self.in_left = np.empty(n_samples, dtype=bool)
        self.orders = [np.empty(size, dtype=np.int64) for _ in range(max_depth - 1)]


def _prefix(buf: np.ndarray, n_features: int, n: int) -> np.ndarray:
    """The leading n_features x n entries of a scratch array, as a matrix."""
    return buf[:n_features * n].reshape(n_features, n)


def _best_split(columns: np.ndarray, node_order: np.ndarray, g: np.ndarray, h: np.ndarray,
                G: float, H: float, lam: float, min_child_weight: float,
                scratch: _Scratch):
    """Exact greedy search over all (feature, threshold) candidates of a node.

    Row f of node_order holds the node's rows in ascending (value, row) order
    of columns[f]; G and H are the node's gradient and hessian sums. Returns
    (gain, feature, threshold) for the best valid split or None. Ties resolve
    to the first feature, then the first sorted position, keeping fits
    deterministic: blocks are scored in feature order, and a later block wins
    only with a strictly larger gain.
    """
    F, n = node_order.shape
    best = None
    for f0, f1 in spans(F, max(1, _BLOCK_ENTRIES // n)):
        order, m = node_order[f0:f1], f1 - f0
        gl_buf, hl_buf = _prefix(scratch.gl, m, n), _prefix(scratch.hl, m, n)
        hr_buf, gain = _prefix(scratch.hr, m, n), _prefix(scratch.gain, m, n)
        valid, test = _prefix(scratch.valid, m, n), _prefix(scratch.mask, m, n)
        # The sorted values pass through the prefix-sum buffers: the take
        # index lives in gl's and the values in hl's, both spent on the
        # distinct-value mask before the sums are written.
        index = np.add(order, scratch.offsets[f0:f1], out=_prefix(scratch.index, m, n))
        xs = np.take(columns, index, out=hl_buf)
        # Position k splits after the k-th sorted value; the last one never can.
        np.greater(xs[:, 1:], xs[:, :-1], out=valid[:, :-1])
        valid[:, -1] = False
        gl = np.cumsum(np.take(g, order, out=gain), axis=1, out=gl_buf)
        hl = np.cumsum(np.take(h, order, out=hr_buf), axis=1, out=hl_buf)
        hr = np.subtract(H, hl, out=hr_buf)
        for side in (hl, hr):
            valid &= np.greater_equal(side, min_child_weight, out=test)
            side += lam  # a side with zero hessian and zero lambda would score 0/0
            valid &= np.greater(side, 0, out=test)
        if not valid.any():
            continue
        # 0.5 * (gl^2 / (hl + lam) + gr^2 / (hr + lam) - G^2 / (H + lam)) at
        # the valid positions, -inf elsewhere, so argmax picks the first best.
        gain.fill(-np.inf)
        np.multiply(gl, gl, out=gain, where=valid)
        np.divide(gain, hl, out=gain, where=valid)
        gr = np.subtract(G, gl, out=gl)
        np.multiply(gr, gr, out=gr, where=valid)
        np.divide(gr, hr, out=gr, where=valid)
        np.add(gain, gr, out=gain, where=valid)
        np.subtract(gain, G * G / (H + lam), out=gain, where=valid)
        np.multiply(0.5, gain, out=gain, where=valid)
        f, k = divmod(int(np.argmax(gain)), n)
        if best is None or gain[f, k] > best[0]:
            best = (float(gain[f, k]), f0 + f, k)
    if best is None:
        return None
    score, f, k = best
    lo, hi = columns[f, node_order[f, k]], columns[f, node_order[f, k + 1]]
    return score, f, float((lo + hi) / 2.0)


def _partition(node_order: np.ndarray, n_left: int, out: np.ndarray,
               scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Each row of node_order split into the rows scratch.in_left marks and the
    rest, written into out as the children's (F, n_left) and (F, n_right) orders.

    A stable filter, so each child's rows stay in sorted order; it runs per
    feature block, so np.compress's internal index stays block-sized.
    """
    F, n = node_order.shape
    n_right = n - n_left
    left, right = out[:F * n_left], out[F * n_left:F * n]
    for f0, f1 in spans(F, max(1, _BLOCK_ENTRIES // n)):
        order = node_order[f0:f1]
        goes = np.take(scratch.in_left, order, out=_prefix(scratch.valid, f1 - f0, n)).ravel()
        np.compress(goes, order, out=left[f0 * n_left:f1 * n_left])
        np.compress(np.logical_not(goes, out=goes), order,
                    out=right[f0 * n_right:f1 * n_right])
    return left.reshape(F, n_left), right.reshape(F, n_right)


def _grow_node(nodes: list[list[float]], rows: np.ndarray, node_order: np.ndarray | None,
               depth: int, columns: np.ndarray, g: np.ndarray, h: np.ndarray,
               config: BoostConfig, scratch: _Scratch) -> None:
    """Append the node over rows, then its left subtree, then its right, so
    nodes are numbered in preorder. rows ascends; row f of node_order holds
    the same rows sorted by feature f, so the node sums keep the order of
    g[rows].sum(). Below the root, node_order is a view of
    scratch.orders[depth - 1] (deeper nodes never write it) or None."""
    node = [_NO_FEATURE, 0.0, _NO_FEATURE, _NO_FEATURE, 0.0]
    nodes.append(node)
    G, H = g[rows].sum(), h[rows].sum()
    if depth < config.max_depth and rows.size >= 2:
        found = _best_split(columns, node_order, g, h, G, H, config.l2_lambda,
                            config.min_child_weight, scratch)
        # Zero-gain splits are accepted: symmetric patterns (e.g. an
        # exclusive-or layout at uniform margins) only pay off a level
        # deeper, and the depth bound caps the cost.
        if found is not None and found[0] >= 0.0:
            _, f, thr = found
            mask = columns[f, rows] < thr
            if mask.any() and not mask.all():
                left_order = right_order = None
                if depth + 1 < config.max_depth:
                    # Entries outside rows are stale; node_order never reads them.
                    scratch.in_left[rows] = mask
                    left_order, right_order = _partition(
                        node_order, int(mask.sum()), scratch.orders[depth], scratch)
                node[:3] = f, thr, len(nodes)
                _grow_node(nodes, rows[mask], left_order, depth + 1, columns, g, h,
                           config, scratch)
                node[3] = len(nodes)
                _grow_node(nodes, rows[~mask], right_order, depth + 1, columns, g, h,
                           config, scratch)
                return
    node[4] = float(-G / (H + config.l2_lambda))


def _grow_tree(columns: np.ndarray, order: np.ndarray, g: np.ndarray, h: np.ndarray,
               config: BoostConfig, scratch: _Scratch) -> RegressionTree:
    """Grow one tree on the (F, S) feature columns; row f of order is the
    stable argsort of column f."""
    nodes: list[list[float]] = []
    _grow_node(nodes, np.arange(columns.shape[1]), order, 0, columns, g, h, config, scratch)
    return RegressionTree(np.array(nodes, dtype=np.float64))


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
        n_classes = int(distinct[-1]) + 1
    if n_classes < 2 or distinct[0] < 0 or distinct[-1] >= n_classes:
        raise ContractError("labels must be indices below the declared class count")

    S = X.shape[0]
    margins = np.zeros((S, n_classes))
    onehot = np.zeros((S, n_classes))
    onehot[np.arange(S), y] = 1.0

    # Column-block presort (Chen & Guestrin, KDD 2016, sec. 4.1): X never
    # changes during a fit, so every tree filters this one order.
    columns = np.ascontiguousarray(X.T)
    order = np.argsort(columns, axis=1, kind="stable")
    scratch = _Scratch(*columns.shape, config.max_depth)
    trees: list[list[RegressionTree]] = []
    probs = softmax(margins)
    loss_trace = [cross_entropy(probs, y)]
    for _ in range(config.rounds):
        grad = probs - onehot
        hess = probs * (1.0 - probs)
        round_trees = [
            _grow_tree(columns, order, grad[:, c], hess[:, c], config, scratch)
            for c in range(n_classes)
        ]
        for c, tree in enumerate(round_trees):
            margins[:, c] += config.learning_rate * tree.predict(X)
        trees.append(round_trees)
        probs = softmax(margins)
        loss_trace.append(cross_entropy(probs, y))

    return BoostedModel(config=config, n_features=X.shape[1], n_classes=n_classes,
                        trees=trees, loss_trace=loss_trace)


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


def predict_label(model: BoostedModel, features: np.ndarray) -> np.ndarray:
    """Per-row argmax of the class probabilities; ties break toward the
    lowest class index."""
    return np.argmax(softmax(predict_margins(model, features)), axis=1)


def save(model: BoostedModel, path: str | Path) -> Path:
    header = {
        "config": asdict(model.config),
        "n_features": model.n_features,
        "n_classes": model.n_classes,
        "rounds": len(model.trees),
        "loss_trace": model.loss_trace,
    }
    arrays = [tree.table for round_trees in model.trees for tree in round_trees]
    return write_model_file(path, GBT_MAGIC, GBT_FORMAT_VERSION, header, arrays)


def _tree_fault(mat: np.ndarray, n_features: int) -> str | None:
    """Why a stored table is not a tree `_grow_tree` could have written, or
    None. Children numbered after their node keep every descent finite."""
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] != 5:
        return f"shape {mat.shape} is not (nodes, 5)"
    if not all_finite(mat):
        return "non-finite entry"
    feature, _, left, right, _ = mat.T
    links = mat[:, [0, 2, 3]]
    if (links != np.round(links)).any():
        return "non-integer feature or child index"
    leaf = feature == _NO_FEATURE
    if ((feature[~leaf] < 0) | (feature[~leaf] >= n_features)).any():
        return f"feature index outside [0, {n_features})"
    if ((left[leaf] != _NO_FEATURE) | (right[leaf] != _NO_FEATURE)).any():
        return "leaf with a child"
    node = np.flatnonzero(~leaf)
    if not ((node < left[node]) & (left[node] < right[node])
            & (right[node] < mat.shape[0])).all():
        return "children not numbered node < left < right < node count"
    return None


def load(path: str | Path) -> BoostedModel:
    header, arrays = read_model_file(path, GBT_MAGIC, GBT_FORMAT_VERSION)
    with parsing_header(path):
        config = BoostConfig(**header["config"])
        n_features = int(header["n_features"])
        n_classes = int(header["n_classes"])
        rounds = int(header["rounds"])
        loss_trace = [float(v) for v in header.get("loss_trace", [])]
    if min(n_features, n_classes, rounds) < 1:
        raise DataError(f"{path}: n_features, n_classes and rounds must be positive")
    if len(arrays) != rounds * n_classes:
        raise DataError(f"{path}: tree count does not match the stored round/class grid")
    for i, mat in enumerate(arrays):
        fault = _tree_fault(mat, n_features)
        if fault:
            raise DataError(f"{path}: tree {i}: {fault}")
    trees = [[RegressionTree(mat) for mat in arrays[r:r + n_classes]]
             for r in range(0, len(arrays), n_classes)]
    return BoostedModel(config=config, n_features=n_features, n_classes=n_classes,
                        trees=trees, loss_trace=loss_trace)
