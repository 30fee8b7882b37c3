"""Shared numerical helpers: frozen array copies, stable softmax and clamped
cross-entropy."""

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
