"""Deterministic sub-seed derivation.

Every generator the package draws from is child_rng's, seeded by a 64-bit
hash of an integer master seed (else a ConfigError naming `seed`) and context
labels, so it is independent of call order, process layout and PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .numerics import conform


def derive_seed(master: int, *context: object) -> int:
    """Stable 64-bit seed from an integer master seed and any context labels."""
    h = hashlib.sha256(str(conform(master, int, "seed")).encode("ascii"))
    for part in context:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def child_rng(master: int, *context: object) -> np.random.Generator:
    """Generator seeded by derive_seed(master, *context)."""
    return np.random.default_rng(derive_seed(master, *context))
