"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError (and its subclasses) -> 2, TrainingDivergenceError -> 3.
ContractError is a programming error and keeps its traceback.
"""


class VoteStackError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(VoteStackError):
    """Invalid configuration value or an operation precondition violated by config."""


class DataError(VoteStackError):
    """Malformed input data: bad CSV rows, corrupt model files, unloadable paths."""


class ContractError(VoteStackError):
    """API misuse, e.g. a feature vector whose length does not match the model."""


class TrainingDivergenceError(VoteStackError):
    """Training produced a non-finite loss; message names the epoch and batch."""


class InsufficientDataError(DataError):
    """Too few samples for a statistic to be defined."""


class DegenerateWeightsError(DataError):
    """Learner weights cannot be normalized (e.g. all accuracies are zero)."""
