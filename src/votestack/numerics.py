"""Shared numerical helpers: frozen array copies, a finiteness test, the input
check of every model entry point (`as_features`, `as_labels`), the type and
range check of every config (`conform`, `conform_fields`, `Range`), near-equal
spans, stable softmax and clamped cross-entropy."""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import types
from contextlib import suppress
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, ContractError, DataError

LOG_CLAMP = 1e-12


@dataclasses.dataclass(frozen=True)
class Range:
    """Bounds low <= value < high (low < value if strict) of a number setting,
    declared in its type hint as in Annotated[int, Range(1)]; NaN lies in none."""

    low: float
    high: float = math.inf
    strict: bool = False

    def __contains__(self, value) -> bool:
        return (self.low < value if self.strict else self.low <= value) and value < self.high

    def __str__(self) -> str:
        if self.high < math.inf:
            return f"lie in {'[('[self.strict]}{self.low:g}, {self.high:g})"
        if self.low == 0:
            return f"be {('non-negative', 'positive')[self.strict]} and finite"
        return f"be at least {self.low}"


COUNT = Annotated[int, Range(1)]
POSITIVE = Annotated[float, Range(0, strict=True)]
NON_NEGATIVE = Annotated[float, Range(0)]
UNIT = Annotated[float, Range(0, 1)]
FRACTION = Annotated[float, Range(0, 1, strict=True)]


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


def _normal(value, hint):
    """value's normal form for one arm of a type hint; a TypeError if it does not fit."""
    if get_origin(hint) is tuple and isinstance(value, (list, tuple)):
        return tuple(_normal(v, get_args(hint)[0]) for v in value)
    # A bool is no number, and a str's characters are no tuple: "345" is no (3, 4, 5).
    if isinstance(value, bool) and hint is not bool or get_origin(hint) is tuple:
        raise TypeError
    if hint is float and isinstance(value, float):
        return float(value)
    if hint in (int, float):
        number = operator.index(value)
        # float() overflows past float64's range; str() raises ValueError, a
        # misfit, past the digits Python writes (sys.get_int_max_str_digits).
        (float if hint is float else str)(number)
        return number
    if not isinstance(value, hint):
        raise TypeError
    return value


def conform(value, hint, name: str):
    """value in the normal form of the first arm of the type hint it fits: an
    int through operator.index (a numpy integer becomes an int; 2.5 and True
    fit no int), a float or an int in float64's range for a float, a tuple
    from a list or tuple; a ConfigError names an empty string, a misfit or a
    number outside the Range of an Annotated hint."""
    if get_origin(hint) is Annotated:
        hint, bounds = get_args(hint)
        value = conform(value, hint, name)
        if value not in bounds:
            raise ConfigError(f"{name} must {bounds}")
        return value
    if isinstance(value, str) and not value:  # an empty path would name the working directory
        raise ConfigError(f"{name} must not be empty")
    arms = get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    for arm in arms:
        try:
            return _normal(value, arm)
        except (TypeError, ValueError):
            continue
        except OverflowError:
            raise ConfigError(f"{name} must be a finite float64, got a larger integer") from None
    names = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
             types.NoneType: "None", tuple[int, ...]: "a list of integers",
             tuple[str, ...]: "a list of strings"}
    message = f"{name} must be " + " or ".join(names.get(arm, f"a {arm.__name__}") for arm in arms)
    with suppress(ValueError):  # an int too long to write as text is not shown
        message += f", got {value!r}"
    raise ConfigError(message)


@functools.cache
def config_fields(cls) -> tuple:
    """(field, type hint) of each init field of a dataclass, resolved once per
    class, since resolving them costs ten times the check of a construction."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls) if f.init)


def conform_fields(config, label=lambda field: field.name) -> None:
    """Store each init field of a frozen dataclass in conform's normal form for
    its type hint; label(field) names a field that misfits or is out of range."""
    for f, hint in config_fields(type(config)):
        object.__setattr__(config, f.name, conform(getattr(config, f.name), hint, label(f)))


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
