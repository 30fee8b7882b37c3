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
in one small scratch block. `predict_proba` scores `PREDICT_ROWS` rows at a
time: the hidden layers below the last run in sub-blocks of at most
`_HIDDEN_ROWS` rows, and only the last hidden layer is held at full block
height. The output layer is narrow, and OpenBLAS computes its GEMM with last
bits that depend on the row count, so it keeps its `(PREDICT_ROWS, width)`
shape and the probabilities keep their bytes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError, TrainingDivergenceError
from .numerics import LOG_CLAMP, all_finite, cross_entropy, softmax, spans
from .seeding import child_rng
from .serialize import parsing_header, read_model_file, write_model_file

MLP_MAGIC = b"VSTKMLP\x00"
MLP_FORMAT_VERSION = 2
# Rows scored per block; smaller blocks change the output layer's last bits
# under OpenBLAS.
PREDICT_ROWS = 1024
# Most rows per sub-block of the hidden layers below the last; a PREDICT_ROWS
# block splits into six of about 171 rows.
_HIDDEN_ROWS = 192
# Most entries per weight-gradient block (512 KiB): the block and the velocity
# and weight rows it updates fit in L2 together.
_GRAD_ENTRIES = 64 * 1024


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and optimizer settings for one base learner.

    layer_sizes runs input -> hidden... -> output, e.g. (57, 1200, 800, 2).
    """

    layer_sizes: tuple[int, ...]
    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 3:
            raise ConfigError("need at least one hidden layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ConfigError("all layer sizes must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")

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


def _check_input_dim(model: MlpModel, X: np.ndarray) -> None:
    if X.shape[-1] != model.config.n_inputs:
        raise ContractError(
            f"model expects {model.config.n_inputs} inputs, got {X.shape[-1]}"
        )


def _forward_cached(model: MlpModel, X: np.ndarray, buffers=None):
    """Forward pass keeping pre-activations for backprop.

    Returns (pre_activations, activations, probs); activations[0] is X.
    Given buffers, (pre, activation) lists of per-layer arrays of at least
    X.shape[0] rows, the layers go into their leading rows.
    """
    pre, acts = [], [X]
    a = X
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(a, W.T, out=None if buffers is None else buffers[0][i][:len(X)])
        z += b
        pre.append(z)
        if i < last:
            a = np.maximum(z, 0.0, out=None if buffers is None else buffers[1][i][:len(X)])
            acts.append(a)
    return pre, acts, softmax(pre[-1])


def predict_proba(model: MlpModel, features) -> np.ndarray:
    """S x C probability matrix of a feature matrix, PREDICT_ROWS rows at a time."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ContractError("predict_proba expects a 2-D feature matrix")
    _check_input_dim(model, X)
    rows = min(PREDICT_ROWS, len(X))
    hidden = model.weights[:-1]
    # one sub-block buffer per hidden layer below the last, one full block for the last
    buffers = [np.empty((min(_HIDDEN_ROWS, rows), W.shape[0])) for W in hidden[:-1]]
    top = np.empty((rows, hidden[-1].shape[0]))
    probs = np.empty((X.shape[0], model.config.n_classes))
    for start in range(0, X.shape[0], PREDICT_ROWS):
        block = X[start:start + PREDICT_ROWS]
        for lo, hi in spans(len(block), _HIDDEN_ROWS):
            a = block[lo:hi]
            for W, b, buf in zip(hidden, model.biases, buffers + [top[lo:]]):
                a = np.matmul(a, W.T, out=buf[:hi - lo])
                a += b
                np.maximum(a, 0.0, out=a)
        logits = top[:len(block)] @ model.weights[-1].T + model.biases[-1]
        probs[start:start + len(block)] = softmax(logits)
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


def gradients(model: MlpModel, features, labels):
    """Analytic gradients of the batch loss w.r.t. every weight and bias."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if len(y) == 0:
        raise ContractError("gradients need a non-empty batch")
    _check_input_dim(model, X)
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
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ContractError("features and labels must agree on sample count")
    if X.shape[0] == 0:
        raise ContractError("cannot train on an empty dataset")
    _check_input_dim(model, X)
    if y.min() < 0 or y.max() >= model.config.n_classes:
        raise ContractError("label index outside the model's output range")
    if rows is not None:
        rows = np.asarray(rows)
        if (rows.ndim != 1 or rows.size == 0 or not np.issubdtype(rows.dtype, np.integer)
                or rows.min() < 0 or rows.max() >= X.shape[0]):
            raise ContractError(
                f"rows must be a non-empty 1-D integer index into {X.shape[0]} rows")

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

    n = X.shape[0] if rows is None else rows.size
    height = min(cfg.batch_size, n)
    buffers = ([np.empty((height, w.shape[0])) for w in model.weights],
               [np.empty((height, w.shape[0])) for w in model.weights[:-1]])
    block = _grad_block(model)

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        if rows is not None:
            order = rows[order]
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
        loss_trace = [float(v) for v in header.get("loss_trace", [])]
    n_layers = len(config.layer_sizes) - 1
    if len(arrays) != 2 * n_layers:
        raise DataError(f"{path}: parameter count does not match the stored config")
    weights = [arrays[2 * i] for i in range(n_layers)]
    biases = [arrays[2 * i + 1] for i in range(n_layers)]
    for i, (fan_in, fan_out) in enumerate(zip(config.layer_sizes, config.layer_sizes[1:])):
        if weights[i].shape != (fan_out, fan_in) or biases[i].shape != (fan_out,):
            raise DataError(f"{path}: parameter shapes do not match the stored config")
    if not all_finite(*arrays):
        raise DataError(f"{path}: non-finite weight or bias")
    return MlpModel(
        config=config,
        weights=weights,
        biases=biases,
        loss_trace=loss_trace,
    )
