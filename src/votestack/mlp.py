"""The homogeneous base learner: a feed-forward net trained by mini-batch SGD.

Hidden layers use the rectifier, the output layer a stable softmax, and the
loss is mean cross-entropy with the true-class probability clamped at 1e-12
before the log. Gradients are exact analytic backpropagation of that loss.
Everything runs in double precision so finite-difference checks are
meaningful.

Working memory is set by the model, not by the data. `train` allocates its
gradient, velocity and one batch's pre-activation and activation buffers once
per call. `predict_proba` scores `PREDICT_ROWS` rows at a time through one
`(PREDICT_ROWS, width)` buffer per hidden layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError, TrainingDivergenceError
from .numerics import LOG_CLAMP, cross_entropy, softmax
from .seeding import child_rng
from .serialize import parsing_header, read_model_file, write_model_file

MLP_MAGIC = b"VSTKMLP\x00"
MLP_FORMAT_VERSION = 2
# Rows scored per block; smaller blocks change the output layer's last bits
# under OpenBLAS.
PREDICT_ROWS = 1024


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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    def to_dict(self) -> dict:
        return {**asdict(self), "layer_sizes": list(self.layer_sizes)}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpConfig":
        return cls(**{**d, "layer_sizes": tuple(d["layer_sizes"])})


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
    hidden = [np.empty((min(PREDICT_ROWS, len(X)), W.shape[0])) for W in model.weights[:-1]]
    probs = np.empty((X.shape[0], model.config.n_classes))
    for start in range(0, X.shape[0], PREDICT_ROWS):
        a = X[start:start + PREDICT_ROWS]
        for W, b, buf in zip(model.weights[:-1], model.biases[:-1], hidden):
            a = np.matmul(a, W.T, out=buf[:a.shape[0]])
            a += b
            np.maximum(a, 0.0, out=a)
        probs[start:start + a.shape[0]] = softmax(a @ model.weights[-1].T + model.biases[-1])
    return probs


def loss(model: MlpModel, features, labels) -> float:
    """Mean clamped cross-entropy over a batch."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if len(y) == 0:
        raise ContractError("loss needs a non-empty batch")
    return cross_entropy(predict_proba(model, X), y)


def _loss_and_gradients(model: MlpModel, X: np.ndarray, y: np.ndarray, grad_w, grad_b,
                        buffers=None):
    """Batch loss; the gradients are written into grad_w/grad_b. Going
    backward, a spent activation takes the next delta and a spent
    pre-activation its mask."""
    n = X.shape[0]
    pre, acts, probs = _forward_cached(model, X, buffers)
    p_true = probs[np.arange(n), y]
    batch_loss = float(-np.log(np.maximum(p_true, LOG_CLAMP)).mean())

    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    # Where the clamp is active the loss is locally flat, so no gradient flows.
    delta[p_true <= LOG_CLAMP] = 0.0
    delta /= n

    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=grad_w[i])
        np.sum(delta, axis=0, out=grad_b[i])
        if i > 0:
            delta = np.matmul(delta, model.weights[i], out=acts[i])
            delta *= np.greater(pre[i - 1], 0.0, out=pre[i - 1])
    return batch_loss


def gradients(model: MlpModel, features, labels):
    """Analytic gradients of the batch loss w.r.t. every weight and bias."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if len(y) == 0:
        raise ContractError("gradients need a non-empty batch")
    _check_input_dim(model, X)
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    _loss_and_gradients(model, X, y, grad_w, grad_b)
    return grad_w, grad_b


def train(model: MlpModel, features, labels) -> MlpModel:
    """Shuffled mini-batch gradient descent with momentum, in place.

    Runs config.epochs passes, records per-epoch mean loss, and raises
    TrainingDivergenceError naming the epoch and batch if the loss goes
    non-finite. Deterministic for a fixed config seed.
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

    cfg = model.config
    rng = child_rng(cfg.seed, "shuffle")
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    # (parameter, its velocity, its gradient buffer) for every weight and bias
    updates = [(p, np.zeros_like(p), g)
               for p, g in zip(model.weights + model.biases, grad_w + grad_b)]
    n = X.shape[0]
    rows = min(cfg.batch_size, n)
    buffers = ([np.empty((rows, w.shape[0])) for w in model.weights],
               [np.empty((rows, w.shape[0])) for w in model.weights[:-1]])

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        running = 0.0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            batch_loss = _loss_and_gradients(model, X[idx], y[idx], grad_w, grad_b, buffers)
            if not np.isfinite(batch_loss):
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            running += batch_loss * len(idx)
            # vel = momentum * vel - learning_rate * grad, without temporaries
            for param, vel, grad in updates:
                vel *= cfg.momentum
                grad *= cfg.learning_rate
                vel -= grad
                param += vel
        model.loss_trace.append(running / n)
    return model


def save(model: MlpModel, path: str | Path) -> Path:
    header = {
        "config": model.config.to_dict(),
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
        config = MlpConfig.from_dict(header["config"])
        loss_trace = [float(v) for v in header.get("loss_trace", [])]
    n_layers = len(config.layer_sizes) - 1
    if len(arrays) != 2 * n_layers:
        raise DataError(f"{path}: parameter count does not match the stored config")
    weights = [arrays[2 * i] for i in range(n_layers)]
    biases = [arrays[2 * i + 1] for i in range(n_layers)]
    for i, (fan_in, fan_out) in enumerate(zip(config.layer_sizes, config.layer_sizes[1:])):
        if weights[i].shape != (fan_out, fan_in) or biases[i].shape != (fan_out,):
            raise DataError(f"{path}: parameter shapes do not match the stored config")
    return MlpModel(
        config=config,
        weights=weights,
        biases=biases,
        loss_trace=loss_trace,
    )
