"""Homogeneous ensembles of small neural networks over tabular data,
fused by averaging, voting, stacking, or vote-filtered stacking."""

from .__about__ import __version__
from . import boosting, mlp
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
    VarianceReport,
    WeightVector,
    apply_filtered,
    fit_filtered,
    majority_vote,
    model_average,
    outcome_accuracy,
    plurality_vote,
    variance_report,
    weights_from_accuracy,
    weights_from_inverse_variance,
)
from .harness import (
    ExperimentConfig,
    RunReport,
    SweepReport,
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

__all__ = [
    "__version__",
    "BoostConfig", "BoostedModel", "boosting", "mlp",
    "ResamplePlan", "build_plan", "materialize", "out_of_bag",
    "ConfigError", "ContractError", "DataError", "TrainingDivergenceError",
    "VoteStackError",
    "REJECTED", "FilteredFusion", "FusionOutcome", "PredictionMatrix",
    "VarianceReport", "WeightVector", "apply_filtered",
    "fit_filtered", "majority_vote",
    "model_average", "outcome_accuracy",
    "plurality_vote", "variance_report", "weights_from_accuracy",
    "weights_from_inverse_variance",
    "ExperimentConfig", "RunReport", "SweepReport", "emit_report",
    "emit_sweep", "run_experiment", "sweep",
    "MlpConfig", "MlpModel",
    "child_rng", "derive_seed",
    "gaussian_blobs",
    "Dataset", "NormalizerState",
    "apply_normalizer", "fit_normalizer", "load_csv", "save_csv", "split",
]
