"""Shared numerical helpers: frozen array copies, a finiteness test, near-equal
spans, stable softmax and clamped cross-entropy."""

from __future__ import annotations

import numpy as np

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
