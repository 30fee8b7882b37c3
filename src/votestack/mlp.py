"""The homogeneous base learner: a feed-forward net trained by mini-batch SGD.

Hidden layers use the rectifier, the output layer a stable softmax, and the
loss is mean cross-entropy with the true-class probability clamped at 1e-12
before the log. Gradients are exact analytic backpropagation of that loss.
Everything runs in double precision so finite-difference checks are
meaningful.

Working memory is set by the model, not by the data. `train` holds the
parameters, their velocity and one batch's pre-activation and activation
buffers, allocated once per call. Its backward pass applies each gradient
block to the parameters as soon as it is computed (the fused update of Lv et
al., "Full Parameter Fine-tuning for Large Language Models with Limited
Resources", 2023, here with a momentum buffer), so no weight-sized gradient
exists: a weight matrix's gradient is built `_GRAD_ENTRIES` entries at a time
in one small scratch block. `predict_proba` runs the same forward pass on
`PREDICT_ROWS`-row blocks, with one buffer per layer rectified in place. A
GEMM's last bits may depend on its row count under OpenBLAS, so probabilities
are fixed by `PREDICT_ROWS` as the trained weights are by `batch_size`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError, TrainingDivergenceError
from .numerics import (COUNT, LOG_CLAMP, POSITIVE, UNIT, all_finite, as_features, as_labels,
                       conform, conform_fields, cross_entropy, softmax, spans)
from .seeding import child_rng
from .serialize import parsing_header, read_model_file, write_model_file

MLP_MAGIC = b"VSTKMLP\x00"
MLP_FORMAT_VERSION = 2
# Most rows scored per block; another block height may move the last bits of
# the probabilities under OpenBLAS.
PREDICT_ROWS = 192
# Most entries per weight-gradient block (512 KiB): the block and the velocity
# and weight rows it updates fit in L2 together.
_GRAD_ENTRIES = 64 * 1024


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and optimizer settings for one base learner.

    layer_sizes runs input -> hidden... -> output, e.g. (57, 1200, 800, 2).
    """

    layer_sizes: tuple[int, ...]
    epochs: COUNT = 25
    batch_size: COUNT = 32
    learning_rate: POSITIVE = 0.01
    momentum: UNIT = 0.9
    seed: int = 0

    def __post_init__(self):
        conform_fields(self)
        if len(self.layer_sizes) < 3 or min(self.layer_sizes) < 1:
            raise ConfigError("need at least one hidden layer, and all layer sizes at least 1, "
                              f"got {self.layer_sizes}")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class MlpModel:
    """Weights/biases of one learner plus its training-loss trace.

    Mutable only inside train(); afterwards treat as immutable and share
    freely across threads.
    """

    config: MlpConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss_trace: list[float] = field(default_factory=list)


def init(config: MlpConfig) -> MlpModel:
    """Fresh model: He-uniform weights (variance 2/fan_in), zero biases."""
    rng = child_rng(config.seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(config.layer_sizes, config.layer_sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(config=config, weights=weights, biases=biases)


def _layer_buffers(model: MlpModel, rows: int) -> list[np.ndarray]:
    """One (rows, width) array per layer, for `_forward_cached`'s buffers."""
    return [np.empty((rows, W.shape[0])) for W in model.weights]


def _forward_cached(model: MlpModel, X: np.ndarray, buffers=None):
    """Forward pass keeping pre-activations for backprop.

    Returns (pre_activations, activations, probs); activations[0] is X.
    The layers go into the leading rows of buffers, (pre, activation) lists
    of per-layer arrays of at least X.shape[0] rows, or fresh ones if None;
    one list given as both makes each rectifier run in place.
    """
    if buffers is None:
        buffers = (_layer_buffers(model, len(X)), _layer_buffers(model, len(X)))
    pre, acts = [], [X]
    a = X
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(a, W.T, out=buffers[0][i][:len(X)])
        z += b
        pre.append(z)
        if i < last:
            a = np.maximum(z, 0.0, out=buffers[1][i][:len(X)])
            acts.append(a)
    return pre, acts, softmax(pre[-1])


def predict_proba(model: MlpModel, features) -> np.ndarray:
    """S x C probability matrix of a feature matrix, PREDICT_ROWS rows at a time."""
    X = as_features(features, model.config.n_inputs)
    layers = _layer_buffers(model, min(PREDICT_ROWS, len(X)))
    probs = np.empty((len(X), model.config.n_classes))
    for lo, hi in spans(len(X), PREDICT_ROWS):
        probs[lo:hi] = _forward_cached(model, X[lo:hi], (layers, layers))[2]
    return probs


def _row_blocks(W: np.ndarray) -> list[tuple[int, int]]:
    """Row spans of W whose gradient blocks hold at most _GRAD_ENTRIES entries."""
    return spans(W.shape[0], max(1, _GRAD_ENTRIES // W.shape[1]))


def _grad_block(model: MlpModel) -> np.ndarray:
    """Scratch for `_backward`: room for its largest gradient block or bias."""
    return np.empty(max(max(W.shape[0], W.shape[1] * (hi - lo))
                        for W in model.weights for lo, hi in _row_blocks(W)))


def _backward(model: MlpModel, y: np.ndarray, pre, acts, probs, sink, block) -> None:
    """Backpropagate the batch's clamped cross-entropy from a `_forward_cached`
    result, top layer first, handing each gradient to sink(j, rows, grad).

    `grad` is the gradient of params[j][rows], params being weights + biases;
    a weight matrix comes in row blocks of at most _GRAD_ENTRIES entries (or
    one row), built in `block` (see `_grad_block`) and valid only until sink
    returns. A layer's delta for the layer below is taken before its weights
    are handed out, so sink may update them in place. Consumes probs, the
    spent pre-activations (which take the next delta) and the spent hidden
    activations (its mask).
    """
    n = len(y)
    batch = np.arange(n)
    p_true = probs[batch, y]
    delta = probs
    delta[batch, y] -= 1.0
    # Where the clamp is active the loss is locally flat, so no gradient flows.
    delta[p_true <= LOG_CLAMP] = 0.0
    delta /= n

    n_layers = len(model.weights)
    for i in range(n_layers - 1, -1, -1):
        W = model.weights[i]
        if i > 0:
            below = np.matmul(delta, W, out=pre[i - 1])
        sink(n_layers + i, slice(None), np.sum(delta, axis=0, out=block[:W.shape[0]]))
        for lo, hi in _row_blocks(W):
            grad = block[:(hi - lo) * W.shape[1]].reshape(hi - lo, W.shape[1])
            sink(i, slice(lo, hi), np.matmul(delta.T[lo:hi], acts[i], out=grad))
        if i > 0:
            # acts[i] = max(pre[i - 1], 0) is positive exactly where pre[i - 1] is
            delta = below
            delta *= np.greater(acts[i], 0.0, out=acts[i])


def _batch(model: MlpModel, features, labels) -> tuple[np.ndarray, np.ndarray]:
    """A non-empty batch's features and labels, checked against the model."""
    X = as_features(features, model.config.n_inputs)
    y = as_labels(labels, len(X), model.config.n_classes)
    if len(y) == 0:
        raise ContractError("training needs a non-empty batch")
    return X, y


def gradients(model: MlpModel, features, labels):
    """Analytic gradients of the batch loss w.r.t. every weight and bias."""
    X, y = _batch(model, features, labels)
    grads = [np.empty_like(p) for p in model.weights + model.biases]

    def keep(j, rows, grad):
        grads[j][rows] = grad

    _backward(model, y, *_forward_cached(model, X), keep, _grad_block(model))
    return grads[:len(model.weights)], grads[len(model.weights):]


def train(model: MlpModel, features, labels, rows=None) -> MlpModel:
    """Shuffled mini-batch gradient descent with momentum, in place.

    Trains on features[rows] and labels[rows] (every row when rows is None)
    without copying them: each epoch shuffles the row index, so a batch is
    one gather from the caller's block, and the result is bit for bit the
    result on a copy of the selected rows. Runs config.epochs passes, records
    per-epoch mean loss, and raises TrainingDivergenceError naming the epoch
    and batch if the loss goes non-finite, before that batch changes any
    parameter. Deterministic for a fixed config seed.
    """
    X, y = _batch(model, features, labels)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows)
    if (rows.ndim != 1 or rows.size == 0 or not np.issubdtype(rows.dtype, np.integer)
            or rows.min() < 0 or rows.max() >= X.shape[0]):
        raise ContractError(f"rows must be a non-empty 1-D integer index into {X.shape[0]} rows")

    cfg = model.config
    rng = child_rng(cfg.seed, "shuffle")
    params = model.weights + model.biases
    velocity = [np.zeros_like(p) for p in params]

    def step(j, part, grad):
        # vel = momentum * vel - learning_rate * grad, without temporaries
        vel = velocity[j][part]
        vel *= cfg.momentum
        grad *= cfg.learning_rate
        vel -= grad
        param = params[j][part]
        param += vel

    n = rows.size
    height = min(cfg.batch_size, n)
    buffers = (_layer_buffers(model, height), _layer_buffers(model, height))
    block = _grad_block(model)

    for epoch in range(cfg.epochs):
        order = rows[rng.permutation(n)]
        running = 0.0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            yb = y[idx]
            pre, acts, probs = _forward_cached(model, X[idx], buffers)
            batch_loss = cross_entropy(probs, yb)
            if not np.isfinite(batch_loss):
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            running += batch_loss * len(idx)
            _backward(model, yb, pre, acts, probs, step, block)
        model.loss_trace.append(running / n)
    return model


def save(model: MlpModel, path: str | Path) -> Path:
    header = {
        "config": asdict(model.config),
        "loss_trace": model.loss_trace,
    }
    arrays: list[np.ndarray] = []
    for w, b in zip(model.weights, model.biases):
        arrays.append(w)
        arrays.append(b)
    return write_model_file(path, MLP_MAGIC, MLP_FORMAT_VERSION, header, arrays)


def load(path: str | Path) -> MlpModel:
    header, arrays = read_model_file(path, MLP_MAGIC, MLP_FORMAT_VERSION)
    with parsing_header(path):
        config = MlpConfig(**header["config"])
        loss_trace = list(conform(header.get("loss_trace", []), tuple[float, ...], "loss_trace"))
    n_layers = len(config.layer_sizes) - 1
    if len(arrays) != 2 * n_layers:
        raise DataError(f"{path}: parameter count does not match the stored config")
    weights, biases = arrays[0::2], arrays[1::2]
    for i, (fan_in, fan_out) in enumerate(zip(config.layer_sizes, config.layer_sizes[1:])):
        if weights[i].shape != (fan_out, fan_in) or biases[i].shape != (fan_out,):
            raise DataError(f"{path}: parameter shapes do not match the stored config")
    if not all_finite(*arrays):
        raise DataError(f"{path}: non-finite weight or bias")
    return MlpModel(config, weights, biases, loss_trace)
