"""Homogeneous ensembles of small neural networks over tabular data,
fused by averaging, voting, stacking, or vote-filtered stacking."""

from .__about__ import __version__
from .boosting import BoostConfig, BoostedModel
from .diversify import ResamplePlan, build_plan, materialize, out_of_bag
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    TrainingDivergenceError,
    VoteStackError,
)
from .fusion import (
    REJECTED,
    FilteredFusion,
    FusionOutcome,
    PredictionMatrix,
    apply_filtered,
    fit_filtered,
    majority_vote,
    model_average,
    plurality_vote,
)
from .harness import (
    ExperimentConfig,
    RunReport,
    emit_report,
    emit_sweep,
    run_experiment,
    sweep,
)
from .mlp import MlpConfig, MlpModel
from .seeding import child_rng, derive_seed
from .synthetic import gaussian_blobs
from .tabular import (
    Dataset,
    NormalizerState,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    save_csv,
    split,
)

__all__ = ["__version__", *(name for name in dir() if not name.startswith("_"))]
