"""One random-stream rule: every generator is seeding.child_rng's, and
seeding.derive_seed checks every master seed where its stream starts."""

import hashlib

import numpy as np
import pytest

from votestack import (
    ConfigError,
    ExperimentConfig,
    apply_normalizer,
    child_rng,
    derive_seed,
    fit_normalizer,
    gaussian_blobs,
    split,
)
from votestack.harness import _prepare

STREAM_STARTS = {
    "derive_seed": lambda seed: derive_seed(seed, "x"),
    "child_rng": lambda seed: child_rng(seed, "x"),
    "gaussian_blobs": lambda seed: gaussian_blobs(20, 2, 2, seed=seed),
    "split": lambda seed: split(gaussian_blobs(20, 2, 2, seed=0), 0.5, True, seed),
}


@pytest.mark.parametrize("start", STREAM_STARTS)
@pytest.mark.parametrize("seed", [
    pytest.param(1.5, id="float"),
    pytest.param(True, id="bool"),
    pytest.param("7", id="str"),
    pytest.param(10**5000, id="too-long-int"),
])
def test_a_seed_that_is_no_integer_is_a_config_error(start, seed):
    # int() would read 1.5 and True as 1 and "7" as 7: another seed's stream, silently.
    with pytest.raises(ConfigError, match="^seed must be an integer"):
        STREAM_STARTS[start](seed)


def test_numpy_and_negative_integers_are_seeds():
    assert derive_seed(np.int64(7), "x") == derive_seed(7, "x")
    assert derive_seed(np.uint8(7), "x") == derive_seed(7, "x")
    # The hash of the master seed's decimal text and the "/"-joined labels.
    digest = hashlib.sha256(b"-3/x/2").digest()
    assert derive_seed(-3, "x", 2) == int.from_bytes(digest[:8], "little")
    assert derive_seed(-3, "x", 2) != derive_seed(3, "x", 2)


@pytest.mark.parametrize("stratified", [True, False])
def test_split_of_the_run_seed_gives_the_rows_a_run_uses(stratified):
    data = gaussian_blobs(90, 3, 3, seed=2)
    config = ExperimentConfig(seed=11, train_fraction=0.7, stratified=stratified)
    train, test, _ = _prepare(config, data, [])
    raw_train, raw_test = split(data, config.train_fraction, config.stratified, config.seed)
    state = fit_normalizer(raw_train)
    for prepared, raw in ((train, raw_train), (test, raw_test)):
        np.testing.assert_array_equal(prepared.labels, raw.labels)
        np.testing.assert_array_equal(prepared.features, apply_normalizer(state, raw).features)
