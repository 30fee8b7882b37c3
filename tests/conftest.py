import os
import signal
import struct
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from votestack import Dataset, PredictionMatrix, mlp
from votestack.numerics import cross_entropy
from votestack.serialize import read_model_file, write_model_file


def traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs; numpy reports its buffers."""
    fn(*args)  # one untraced call first, so one-time set-up is not counted
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_process_minor_faults(setup: str, statement: str) -> int:
    """Minor page faults a fresh interpreter takes to run `statement` after
    `setup` (both Python source): the page churn a warmed process can hide."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import resource\n{setup}\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"{statement}\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def mlp_loss(model, X, y):
    """Mean clamped cross-entropy of a model's probabilities on a batch: the
    loss whose gradient `mlp.gradients` computes."""
    return cross_entropy(mlp.predict_proba(model, X), y)


def make_dataset(features, labels, n_classes=None):
    """Dataset wrapper around raw arrays with generated feature and class names."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    return Dataset(features, labels,
                   feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
                   class_names=tuple(f"c{i}" for i in range(n_classes)))


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


def _nan_first_entry(arrays):
    arrays[0].flat[0] = np.nan


def _drop_last_array(arrays):
    arrays.pop()


def _transpose_first_array(arrays):
    arrays[0] = arrays[0].T


MALFORMED_MODEL_CASES = (
    "header without config",
    "JSON list header",
    "unknown config key",
    "invalid config value",
    "dims 2**31 x 2**31",
    "dims 2**40 x 2**30",
    "dims 0 x 2**62",
    "ndim 70, dims (0, 1, ..., 1)",
    pytest.param(_nan_first_entry, id="NaN first entry"),
    pytest.param(_drop_last_array, id="last array dropped"),
    pytest.param(_transpose_first_array, id="first array transposed"),
)


def write_malformed_model(path, magic, version, case, bad_config):
    """Rewrite the valid model file at `path` as the malformed `case`.

    `bad_config` holds config fields with values the model family rejects.
    The dims cases declare one array of that shape and end before its data.
    A `(fields, n_arrays)` case sets those header fields and keeps only the
    first `n_arrays` arrays. A callable case edits the list of arrays in place.
    """
    header, arrays = read_model_file(path, magic, version)
    if callable(case):
        case(arrays)
    elif isinstance(case, tuple):
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
                "dims 2**40 x 2**30": (2**40, 2**30),
                "dims 0 x 2**62": (0, 2**62),
                "ndim 70, dims (0, 1, ..., 1)": (0,) + (1,) * 69}[case]
        write_model_file(path, magic, version, header, [])
        # Replace the trailing array count of 0 with one array header.
        path.write_bytes(path.read_bytes()[:-4]
                         + struct.pack(f"<IB{len(dims)}Q", 1, len(dims), *dims))
        return
    write_model_file(path, magic, version, header, arrays)


# The file fuzz tests share one derandomized profile, so tier-1 stays
# deterministic; Hypothesis's per-example deadline is off, and `wall_bound`
# fails a load that hangs instead.
FUZZ_SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)
LOAD_WALL_S = 3.0

# One edit of a file: flip one bit, cut the file short, or insert bytes.
# Positions wrap around the current length.
_EDIT = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.binary(min_size=1, max_size=16)),
)
FILE_EDITS = st.lists(_EDIT, min_size=1, max_size=4)


def apply_edits(data: bytes, edits) -> bytes:
    """`data` after each edit of FILE_EDITS in turn."""
    buf = bytearray(data)
    for kind, pos, *arg in edits:
        if kind == "flip" and buf:
            buf[pos % len(buf)] ^= 1 << arg[0]
        elif kind == "truncate":
            del buf[pos % (len(buf) + 1):]
        elif kind == "insert":
            at = pos % (len(buf) + 1)
            buf[at:at] = arg[0]
    return bytes(buf)


@contextmanager
def wall_bound(seconds: float):
    """Raise TimeoutError inside the block once it has run `seconds` of wall
    time, so a reader caught in a loop fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
