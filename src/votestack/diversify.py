"""Training-input diversification: delete one segment, replenish by bootstrap.

A plan shuffles the training indices once and cuts them into n contiguous
segments (sizes differing by at most one, remainder spread from the front).
Learner j trains on everything outside segment j plus an equal number of
samples redrawn with replacement from the kept part, so every learner sees
a full-size training set that excludes its own held-out segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import frozen_copy
from .seeding import child_rng

PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ResamplePlan:
    """One shuffled permutation of the training indices plus segment bounds."""

    n_learners: int
    seed: int
    permutation: np.ndarray
    segment_bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        perm = frozen_copy(self.permutation, np.int64)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "segment_bounds", tuple(map(tuple, self.segment_bounds)))
        if len(self.segment_bounds) != self.n_learners:
            raise ContractError("one segment per learner required")
        sizes = [hi - lo for lo, hi in self.segment_bounds]
        if self.segment_bounds[0][0] != 0 or self.segment_bounds[-1][1] != perm.size:
            raise ContractError("segments must cover the permutation")
        for (_, hi), (lo, _) in zip(self.segment_bounds, self.segment_bounds[1:]):
            if hi != lo:
                raise ContractError("segments must be contiguous")
        if max(sizes) - min(sizes) > 1:
            raise ContractError("segment sizes may differ by at most one")

    @property
    def train_size(self) -> int:
        return int(self.permutation.size)

    def to_manifest(self) -> dict:
        """JSON-serializable description sufficient for an exact re-run."""
        return {
            "format_version": PLAN_FORMAT_VERSION,
            "seed": self.seed,
            "n_learners": self.n_learners,
            "train_size": self.train_size,
            "segment_bounds": [list(b) for b in self.segment_bounds],
        }


def build_plan(train_size: int, n_learners: int, seed: int) -> ResamplePlan:
    """Shuffle the training indices and cut them into n near-equal segments."""
    if n_learners < 1:
        raise ConfigError("n_learners must be at least 1")
    if train_size < 2 * n_learners:
        raise ConfigError(
            f"train_size {train_size} too small for {n_learners} learners "
            f"(need at least {2 * n_learners})"
        )
    rng = child_rng(seed, "plan")
    permutation = rng.permutation(train_size)
    base, remainder = divmod(train_size, n_learners)
    bounds = []
    lo = 0
    for j in range(n_learners):
        hi = lo + base + (1 if j < remainder else 0)
        bounds.append((lo, hi))
        lo = hi
    return ResamplePlan(
        n_learners=n_learners, seed=seed, permutation=permutation,
        segment_bounds=tuple(bounds),
    )


def _check_learner_id(plan: ResamplePlan, learner_id: int) -> None:
    if not (0 <= learner_id < plan.n_learners):
        raise ContractError(
            f"learner_id {learner_id} out of range for {plan.n_learners} learners"
        )


def materialize(plan: ResamplePlan, learner_id: int) -> np.ndarray:
    """Training indices for one learner: deleted segment excluded, size preserved.

    The kept indices come first, in ascending order, followed by the
    replenishment: draws made uniformly with replacement from the kept
    indices using a sub-seed derived from (plan.seed, learner_id), so results
    do not depend on the order learners are materialized in.
    """
    _check_learner_id(plan, learner_id)
    lo, hi = plan.segment_bounds[learner_id]
    kept = np.sort(np.concatenate([plan.permutation[:lo], plan.permutation[hi:]]))
    rng = child_rng(plan.seed, "replenish", learner_id)
    draws = rng.integers(0, kept.size, size=hi - lo)
    return np.concatenate([kept, kept[draws]])


def out_of_bag(plan: ResamplePlan, learner_id: int) -> np.ndarray:
    """The deleted segment: indices the learner never trains on."""
    _check_learner_id(plan, learner_id)
    lo, hi = plan.segment_bounds[learner_id]
    return np.sort(plan.permutation[lo:hi])
