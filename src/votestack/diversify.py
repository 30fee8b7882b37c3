"""Training-input diversification: delete one segment, replenish by bootstrap.

A plan shuffles the training indices once and cuts them into n contiguous
segments (sizes differing by at most one, remainder spread from the front).
Learner j trains on everything outside segment j plus an equal number of
samples redrawn with replacement from the kept part, so every learner sees
a full-size training set that excludes its own held-out segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import COUNT, conform_fields
from .seeding import child_rng

PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ResamplePlan:
    """train_size training indices shuffled by a permutation derived from the
    seed, cut into n_learners segments."""

    train_size: int
    n_learners: COUNT
    seed: int
    permutation: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        conform_fields(self)
        if self.train_size < 2 * self.n_learners:
            raise ConfigError(
                f"train_size {self.train_size} too small for {self.n_learners} learners "
                f"(need at least {2 * self.n_learners})"
            )
        permutation = child_rng(self.seed, "plan").permutation(self.train_size)
        permutation.setflags(write=False)
        object.__setattr__(self, "permutation", permutation)

    @property
    def segment_bounds(self) -> tuple[tuple[int, int], ...]:
        """(lo, hi) of each segment of the permutation, in order; sizes differ
        by at most one, the remainder spread from the front."""
        base, remainder = divmod(self.train_size, self.n_learners)
        starts = [j * base + min(j, remainder) for j in range(self.n_learners + 1)]
        return tuple(zip(starts, starts[1:]))

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
    """Shuffle the training indices; the plan cuts them into n near-equal segments."""
    return ResamplePlan(train_size, n_learners, seed)


def materialize(plan: ResamplePlan, learner_id: int) -> np.ndarray:
    """Training indices for one learner: deleted segment excluded, size preserved.

    The kept indices come first, in ascending order, followed by the
    replenishment: draws made uniformly with replacement from the kept
    indices using a sub-seed derived from (plan.seed, learner_id), so results
    do not depend on the order learners are materialized in.
    """
    deleted = out_of_bag(plan, learner_id)
    kept = np.delete(np.arange(plan.train_size), deleted)
    rng = child_rng(plan.seed, "replenish", learner_id)
    draws = rng.integers(0, kept.size, size=deleted.size)
    return np.concatenate([kept, kept[draws]])


def out_of_bag(plan: ResamplePlan, learner_id: int) -> np.ndarray:
    """The deleted segment, ascending: indices the learner never trains on."""
    if not (0 <= learner_id < plan.n_learners):
        raise ContractError(f"learner_id {learner_id} out of range for {plan.n_learners} learners")
    lo, hi = plan.segment_bounds[learner_id]
    return np.sort(plan.permutation[lo:hi])
