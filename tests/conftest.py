import struct

import numpy as np
import pytest

from votestack import Dataset, DatasetSchema, PredictionMatrix
from votestack.serialize import read_model_file, write_model_file


def make_dataset(features, labels, n_classes=None):
    """Dataset wrapper around raw arrays with an auto-generated schema."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    schema = DatasetSchema(
        n_features=features.shape[1],
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
        label_column=features.shape[1],
        n_classes=n_classes,
        class_names=tuple(f"c{i}" for i in range(n_classes)),
    )
    return Dataset(schema, features, labels)


def one_hot_pm(votes, n_classes):
    """PredictionMatrix whose rows are one-hot on the given votes.

    votes: (n_learners, n_samples) integer array.
    """
    votes = np.asarray(votes, dtype=np.int64)
    n, s = votes.shape
    probs = np.zeros((n, s, n_classes))
    for j in range(n):
        probs[j, np.arange(s), votes[j]] = 1.0
    return PredictionMatrix(probs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pm(rng, n, s, c):
    """Valid random prediction matrix with Dirichlet rows."""
    return PredictionMatrix(rng.dirichlet(np.ones(c), size=(n, s)))


MALFORMED_MODEL_CASES = (
    "header without config",
    "JSON list header",
    "unknown config key",
    "invalid config value",
    "dims 2**31 x 2**31",
    "dims 2**40 x 2**30",
)


def write_malformed_model(path, magic, version, case, bad_config):
    """Rewrite the valid model file at `path` as the malformed `case`.

    `bad_config` holds config fields with values the model family rejects.
    The dims cases declare one array of that shape and end before its data.
    A `(fields, n_arrays)` case sets those header fields and keeps only the
    first `n_arrays` arrays.
    """
    header, arrays = read_model_file(path, magic, version)
    if isinstance(case, tuple):
        fields, n_arrays = case
        header.update(fields)
        arrays = arrays[:n_arrays]
    elif case == "header without config":
        del header["config"]
    elif case == "JSON list header":
        header = [header]
    elif case == "unknown config key":
        header["config"]["bogus"] = 1
    elif case == "invalid config value":
        header["config"].update(bad_config)
    else:
        dims = {"dims 2**31 x 2**31": (2**31, 2**31),
                "dims 2**40 x 2**30": (2**40, 2**30)}[case]
        write_model_file(path, magic, version, header, [])
        # Replace the trailing array count of 0 with one 2-D array header.
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<IBQQ", 1, 2, *dims))
        return
    write_model_file(path, magic, version, header, arrays)
