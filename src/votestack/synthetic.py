"""Seeded synthetic classification data for benchmarks and self-checks.

The generator draws one Gaussian center per class and samples points around
it. With the default geometry the classes overlap enough that a small
network lands well below perfect accuracy, which is the regime where
combining several of them pays off. A positive anisotropy gives each class
its own per-axis noise scales, curving the class boundaries so that
probability patterns carry information beyond the plain vote.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .seeding import child_rng
from .tabular import Dataset

DEFAULT_CENTER_SPREAD = 0.45
DEFAULT_NOISE = 1.0
DEFAULT_ANISOTROPY = 0.8


def gaussian_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    seed: int,
    center_spread: float = DEFAULT_CENTER_SPREAD,
    noise: float = DEFAULT_NOISE,
    anisotropy: float = DEFAULT_ANISOTROPY,
) -> Dataset:
    """Overlapping Gaussian class clusters as a Dataset.

    Class centers are drawn from N(0, center_spread^2 I). Each class gets
    per-feature noise scales noise * exp(anisotropy * z) with z standard
    normal (anisotropy 0 means equal spherical covariance for every class),
    and samples are drawn around the class center with those scales. Class
    sizes are balanced to within one sample and row order is shuffled.
    Fully determined by the arguments.
    """
    if n_samples < 2 * n_classes:
        raise ConfigError(
            f"need at least {2 * n_classes} samples for {n_classes} classes"
        )
    if n_classes < 2:
        raise ConfigError("need at least two classes")
    if n_features < 1:
        raise ConfigError("need at least one feature")
    if center_spread <= 0 or noise <= 0:
        raise ConfigError("center_spread and noise must be positive")
    if anisotropy < 0:
        raise ConfigError("anisotropy must be non-negative")

    rng = child_rng(seed, "blobs", n_samples, n_features, n_classes)
    centers = rng.normal(0.0, center_spread, size=(n_classes, n_features))
    scales = noise * np.exp(anisotropy * rng.normal(size=(n_classes, n_features)))

    base, extra = divmod(n_samples, n_classes)
    counts = np.full(n_classes, base, dtype=np.int64)
    counts[:extra] += 1
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), counts)
    rng.shuffle(labels)

    features = centers[labels] + rng.normal(size=(n_samples, n_features)) * scales[labels]

    return Dataset(features, labels,
                   feature_names=tuple(f"f{i}" for i in range(n_features)),
                   class_names=tuple(f"c{i}" for i in range(n_classes)))
