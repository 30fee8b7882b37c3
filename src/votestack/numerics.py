"""Shared numerical helpers: frozen array copies, a finiteness test, the input
check of every model entry point (`as_features`, `as_labels`), integer config
fields, near-equal spans, stable softmax and clamped cross-entropy."""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError, ContractError, DataError

LOG_CLAMP = 1e-12


def frozen_copy(arr, dtype) -> np.ndarray:
    """Read-only contiguous copy; never flips flags on a caller-owned array."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


def all_finite(*arrays: np.ndarray) -> bool:
    """No NaN or infinity in any array. The min and max of a non-empty array
    are non-finite exactly when some entry is, and make no boolean copy."""
    return all(np.isfinite([a.min(), a.max()]).all() for a in arrays if a.size)


def as_features(features, n_columns: int | None = None) -> np.ndarray:
    """features as a finite float64 S x F matrix with at least one column, and
    exactly n_columns of them when that is given."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1 or n_columns not in (None, X.shape[1]):
        want = "at least one column" if n_columns is None else f"{n_columns} inputs per row"
        raise ContractError(f"features must be a 2-D matrix with {want}, got shape {X.shape}")
    if not all_finite(X):
        raise DataError("features contain non-finite values")
    return X


def as_labels(labels, n_samples: int, n_classes: int | None = None) -> np.ndarray:
    """labels as an int64 vector of n_samples whole-number class indices in
    [0, n_classes), or only non-negative when n_classes is None."""
    raw = np.asarray(labels)
    if raw.shape != (n_samples,):
        raise ContractError(
            f"labels must be a vector of {n_samples} class indices, got shape {raw.shape}")
    with np.errstate(invalid="ignore"):  # a NaN or out-of-range cast fails the test below
        y = raw.astype(np.int64, copy=False)
    if raw.dtype.kind not in "iu" and not (y == raw).all():
        raise ContractError("labels must be whole-number class indices")
    if y.size and (y.min() < 0 or n_classes is not None and y.max() >= n_classes):
        bound = "" if n_classes is None else f" {n_classes}"
        raise ContractError(f"labels must lie in [0, class count{bound}), "
                            f"got values from {y.min()} to {y.max()}")
    return y


def integer_fields(config, *names: str, prefix: str = "") -> None:
    """Set each named field of a frozen dataclass to its operator.index value;
    a ConfigError, its message starting with prefix, names one that is no
    integer, so 2.5 epochs fail at construction, not mid-run."""
    for name in names:
        value = getattr(config, name)
        try:
            object.__setattr__(config, name, operator.index(value))
        except TypeError:
            raise ConfigError(f"{prefix}{name} must be an integer, got {value!r}") from None


def spans(n: int, step: int) -> list[tuple[int, int]]:
    """Bounds of ceil(n / step) spans of near-equal length covering range(n).

    No span is longer than step or a short remainder, for two reasons. In
    `mlp`, OpenBLAS may compute a GEMM of a few rows with another kernel, whose
    last bits differ from the whole GEMM's. In `boosting`, each feature block
    of the split search stays within its L2-sized cell budget, and no block is
    a near-empty tail.
    """
    parts = max(1, -(-n // step))
    return [(n * j // parts, n * (j + 1) // parts) for j in range(parts)]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise normalized exponentials with max-subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, clamped at 1e-12."""
    p_true = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(p_true, LOG_CLAMP)).mean())
