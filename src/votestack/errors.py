"""Exception hierarchy shared across the toolkit.

Each error names its cause, and the CLI maps the cause to an exit code:
ConfigError (the config) -> 1, DataError (an input file or the data in
it) -> 2, TrainingDivergenceError (training) -> 3. ContractError is a
caller's bug and keeps its traceback.
"""


class VoteStackError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(VoteStackError):
    """Invalid configuration value or an operation precondition violated by config."""


class DataError(VoteStackError):
    """Malformed or unusable input: bad CSV rows, corrupt model files,
    unloadable paths, data too degenerate for a split or statistic."""


class ContractError(VoteStackError):
    """API misuse, e.g. a feature vector whose length does not match the model."""


class TrainingDivergenceError(VoteStackError):
    """Training produced a non-finite loss; message names the epoch and batch."""
