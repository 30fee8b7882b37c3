import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votestack import (
    ConfigError,
    ContractError,
    DataError,
    MlpConfig,
    PredictionMatrix,
    TrainingDivergenceError,
    VoteStackError,
    build_plan,
    child_rng,
    gaussian_blobs,
    materialize,
    mlp,
)
from votestack.numerics import LOG_CLAMP, softmax

from conftest import (
    FILE_EDITS,
    FUZZ_SETTINGS,
    LOAD_WALL_S,
    MALFORMED_MODEL_CASES,
    apply_edits,
    fresh_process_minor_faults,
    mlp_loss,
    traced_peak,
    wall_bound,
    write_malformed_model,
)


def params(model):
    """All weights then all biases, flattened into one vector."""
    return np.concatenate([w.ravel() for w in model.weights]
                          + [b.ravel() for b in model.biases])


def votes(model, X):
    """The model's labels as the harness derives them: PredictionMatrix votes."""
    return PredictionMatrix(mlp.predict_proba(model, X)[None]).votes()[0]


def zero_model(layer_sizes):
    """Model with all-zero parameters: every class gets equal probability."""
    model = mlp.init(MlpConfig(layer_sizes=layer_sizes))
    for w in model.weights:
        w[:] = 0.0
    return model


def pass_through_model(out_weights, out_biases):
    """1-input net whose hidden layer forwards max(x, 0) unchanged."""
    n_out = len(out_biases)
    model = mlp.init(MlpConfig(layer_sizes=(1, 1, n_out)))
    model.weights[0][:] = [[1.0]]
    model.biases[0][:] = [0.0]
    model.weights[1][:] = np.asarray(out_weights, dtype=np.float64).reshape(n_out, 1)
    model.biases[1][:] = out_biases
    return model


def reference_gradients(model, X, y):
    """Batch loss and gradients by whole-matrix backpropagation: one GEMM per
    weight gradient and fresh arrays throughout."""
    m = len(y)
    pre, acts = [], [X]
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        pre.append(acts[-1] @ W.T + b)
        if i < len(model.weights) - 1:
            acts.append(np.maximum(pre[-1], 0.0))
    probs = softmax(pre[-1])
    p_true = probs[np.arange(m), y]
    batch_loss = float(-np.log(np.maximum(p_true, LOG_CLAMP)).mean())
    delta = probs.copy()
    delta[np.arange(m), y] -= 1.0
    delta[p_true <= LOG_CLAMP] = 0.0
    delta /= m
    grad_w, grad_b = [None] * len(model.weights), [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = delta.T @ acts[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * (pre[i - 1] > 0.0)
    return batch_loss, grad_w, grad_b


def reference_train(model, X, y):
    """The per-step allocating trainer: fresh gradients and a fresh velocity
    every step, the loop that `mlp.train`'s in-place step must reproduce."""
    cfg = model.config
    rng = child_rng(cfg.seed, "shuffle")
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        running = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_loss, grad_w, grad_b = reference_gradients(model, X[idx], y[idx])
            running += batch_loss * len(idx)
            for i in range(len(model.weights)):
                vel_w[i] = cfg.momentum * vel_w[i] - cfg.learning_rate * grad_w[i]
                vel_b[i] = cfg.momentum * vel_b[i] - cfg.learning_rate * grad_b[i]
                model.weights[i] += vel_w[i]
                model.biases[i] += vel_b[i]
        model.loss_trace.append(running / n)
    return model


def assert_bits_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_same_model(got, expected):
    assert got.loss_trace == expected.loss_trace
    for a, b in zip(got.weights + got.biases, expected.weights + expected.biases,
                    strict=True):
        assert_bits_equal(a, b)


@st.composite
def training_problems(draw):
    """Small nets of 1 to 3 hidden layers with any batch size up to past n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_classes = draw(st.integers(1, 24)), draw(st.integers(2, 4))
    hidden = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    cfg = MlpConfig(
        layer_sizes=(draw(st.integers(1, 5)), *hidden, n_classes),
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, n + 2)),
        learning_rate=draw(st.sampled_from([0.01, 0.1, 0.5])),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        seed=draw(st.integers(0, 1000)),
    )
    X = rng.standard_normal((n, cfg.n_inputs))
    return cfg, X, rng.integers(0, n_classes, size=n)


class TestInit:
    def test_layer_shapes(self):
        model = mlp.init(MlpConfig(layer_sizes=(4, 3, 2)))
        assert model.weights[0].shape == (3, 4)
        assert model.biases[0].shape == (3,)
        assert model.weights[1].shape == (2, 3)
        assert model.biases[1].shape == (2,)

    def test_biases_start_at_zero(self):
        model = mlp.init(MlpConfig(layer_sizes=(5, 4, 3)))
        for b in model.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_same_seed_bit_identical(self):
        cfg = MlpConfig(layer_sizes=(6, 5, 4), seed=42)
        a = params(mlp.init(cfg))
        b = params(mlp.init(cfg))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        base = MlpConfig(layer_sizes=(6, 5, 4), seed=1)
        a = params(mlp.init(base))
        b = params(mlp.init(replace(base, seed=2)))
        assert not np.array_equal(a, b)

    def test_weight_variance_matches_fan_in_scaling(self):
        model = mlp.init(MlpConfig(layer_sizes=(1000, 1000, 2), seed=7))
        w = model.weights[0]
        target = 2.0 / 1000.0
        assert abs(w.var() - target) < 0.2 * target
        limit = math.sqrt(6.0 / 1000.0)
        assert np.abs(w).max() <= limit

    def test_too_few_layers_rejected(self):
        with pytest.raises(ConfigError, match="hidden"):
            MlpConfig(layer_sizes=(4, 2))

    def test_bad_optimizer_settings_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            MlpConfig(layer_sizes=(4, 3, 2), epochs=0)
        with pytest.raises(ConfigError, match="learning_rate"):
            MlpConfig(layer_sizes=(4, 3, 2), learning_rate=0.0)
        with pytest.raises(ConfigError, match="momentum"):
            MlpConfig(layer_sizes=(4, 3, 2), momentum=1.0)
        with pytest.raises(ConfigError, match="batch_size"):
            MlpConfig(layer_sizes=(4, 3, 2), batch_size=0)


class TestForward:
    def test_zero_weights_give_uniform_three_way(self):
        model = zero_model((5, 4, 3))
        probs = mlp.predict_proba(model, np.ones((1, 5)))[0]
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_extreme_logits_do_not_overflow(self):
        model = pass_through_model([1.0, 0.0], [0.0, 0.0])
        with np.errstate(over="raise"):
            probs = mlp.predict_proba(model, np.array([[1000.0]]))[0]
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-300)
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_rows_sum_to_one(self, rng):
        model = mlp.init(MlpConfig(layer_sizes=(4, 8, 3), seed=5))
        probs = mlp.predict_proba(model, rng.standard_normal((20, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_matches_independent_matrix_evaluation(self, rng):
        model = mlp.init(MlpConfig(layer_sizes=(3, 5, 4, 2), seed=13))
        X = rng.standard_normal((9, 3))
        a = X
        for i, (W, b) in enumerate(zip(model.weights, model.biases)):
            z = a @ W.T + b
            a = np.maximum(z, 0.0) if i < len(model.weights) - 1 else z
        z = a - a.max(axis=1, keepdims=True)
        expected = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(mlp.predict_proba(model, X), expected, atol=1e-12)

    def test_input_width_mismatch_rejected(self):
        model = zero_model((4, 3, 2))
        with pytest.raises(ContractError, match="inputs"):
            mlp.predict_proba(model, np.ones((1, 5)))


class TestPredictLabel:
    def test_argmax_of_probabilities(self):
        model = pass_through_model([0.2, 0.5, 0.3], [0.0, 0.0, 0.0])
        # input 1.0 makes the logits equal the output weights
        assert votes(model, np.array([[1.0]]))[0] == 1

    def test_tie_breaks_toward_lowest_class(self):
        model = zero_model((3, 2, 2))
        labels = votes(model, np.ones((4, 3)))
        np.testing.assert_array_equal(labels, 0)


class TestLoss:
    def test_perfect_prediction_loss_zero(self):
        model = pass_through_model([1.0, 0.0], [0.0, 0.0])
        assert mlp_loss(model, np.array([[1000.0]]), np.array([0])) == 0.0

    def test_uniform_prediction_loss_is_log_c(self):
        model = zero_model((4, 3, 3))
        got = mlp_loss(model, np.ones((5, 4)), np.array([0, 1, 2, 0, 1]))
        assert abs(got - math.log(3)) < 1e-12

    def test_clamp_keeps_loss_finite(self):
        model = pass_through_model([1.0, 0.0], [0.0, 0.0])
        # true class probability underflows to zero at this logit gap
        got = mlp_loss(model, np.array([[1000.0]]), np.array([1]))
        assert math.isfinite(got)
        assert abs(got - (-math.log(1e-12))) < 1e-9


class TestGradients:
    def test_match_central_finite_differences(self, rng):
        cfg = MlpConfig(layer_sizes=(4, 2, 3, 2), seed=11)
        model = mlp.init(cfg)
        # biases start at zero, which can park a sample exactly on a
        # rectifier kink where the loss is not differentiable; move to a
        # generic point and confirm a wide margin around every kink
        for b in model.biases:
            b[:] = rng.normal(scale=0.5, size=b.shape)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, size=6)
        pre, _, _ = mlp._forward_cached(model, X)
        assert min(np.abs(z).min() for z in pre[:-1]) > 1e-3
        grad_w, grad_b = mlp.gradients(model, X, y)

        step = 1e-5
        for arrays, grads in ((model.weights, grad_w), (model.biases, grad_b)):
            for arr, grad in zip(arrays, grads):
                flat = arr.ravel()
                gflat = grad.ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + step
                    up = mlp_loss(model, X, y)
                    flat[k] = orig - step
                    down = mlp_loss(model, X, y)
                    flat[k] = orig
                    numeric = (up - down) / (2 * step)
                    denom = max(abs(numeric), abs(gflat[k]), 1e-8)
                    assert abs(numeric - gflat[k]) / denom < 1e-4

    def test_zero_for_perfectly_confident_correct_model(self):
        model = pass_through_model([1.0, 0.0], [0.0, 0.0])
        grad_w, grad_b = mlp.gradients(model, np.array([[1000.0]]), np.array([0]))
        # p_true == 1 exactly, so every parameter sits at a flat optimum
        for g in grad_w + grad_b:
            np.testing.assert_allclose(g, 0.0, atol=1e-300)


class TestTrain:
    def test_separable_blob_reaches_high_accuracy(self):
        data = gaussian_blobs(100, 2, 2, seed=3, center_spread=6.0, noise=0.4,
                              anisotropy=0.0)
        cfg = MlpConfig(layer_sizes=(2, 16, 2), epochs=30, batch_size=16,
                        learning_rate=0.05, seed=0)
        model = mlp.train(mlp.init(cfg), data.features, data.labels)
        acc = float(np.mean(votes(model, data.features) == data.labels))
        assert acc >= 0.99

    def test_loss_trace_shrinks(self):
        data = gaussian_blobs(120, 3, 2, seed=5)
        cfg = MlpConfig(layer_sizes=(3, 8, 2), epochs=10, seed=1)
        model = mlp.train(mlp.init(cfg), data.features, data.labels)
        assert len(model.loss_trace) == 10
        assert model.loss_trace[-1] < model.loss_trace[0]

    def test_deterministic_for_fixed_seed(self):
        data = gaussian_blobs(60, 2, 2, seed=8)
        cfg = MlpConfig(layer_sizes=(2, 6, 2), epochs=4, seed=21)
        a = params(mlp.train(mlp.init(cfg), data.features, data.labels))
        b = params(mlp.train(mlp.init(cfg), data.features, data.labels))
        np.testing.assert_array_equal(a, b)

    def test_different_training_rows_change_the_model(self):
        data = gaussian_blobs(80, 2, 2, seed=9)
        cfg = MlpConfig(layer_sizes=(2, 6, 2), epochs=3, seed=0)
        a = mlp.train(mlp.init(cfg), data.features[:40], data.labels[:40])
        b = mlp.train(mlp.init(cfg), data.features[40:], data.labels[40:])
        assert not np.array_equal(params(a), params(b))

    def test_divergence_reported_with_location(self):
        # a step this large overflows the weights to inf on the first
        # update, so the next batch evaluates a non-finite loss
        data = gaussian_blobs(50, 2, 2, seed=2)
        cfg = MlpConfig(layer_sizes=(2, 8, 2), epochs=5, learning_rate=1e308, seed=0)
        with pytest.raises(TrainingDivergenceError, match=r"epoch \d+, batch \d+"):
            with np.errstate(all="ignore"):
                mlp.train(mlp.init(cfg), data.features, data.labels)

    def test_label_outside_output_range_rejected(self):
        cfg = MlpConfig(layer_sizes=(2, 4, 2), epochs=1)
        with pytest.raises(ContractError, match="label"):
            mlp.train(mlp.init(cfg), np.zeros((3, 2)), np.array([0, 1, 2]))


class TestInPlaceHotPath:
    @pytest.mark.parametrize("layer_sizes, batch_size, momentum", [
        ((5, 7, 3), 32, 0.0),          # momentum off
        ((5, 7, 6, 3), 8, 0.9),        # 8 does not divide 30: partial last batch
        ((5, 4, 3), 1, 0.9),           # one sample per step
        ((5, 9, 7, 4, 3), 7, 0.5),     # three hidden layers
    ])
    def test_train_matches_allocating_reference(self, layer_sizes, batch_size, momentum):
        data = gaussian_blobs(30, 5, 3, seed=17)
        cfg = MlpConfig(layer_sizes=layer_sizes, epochs=3, batch_size=batch_size,
                        learning_rate=0.05, momentum=momentum, seed=4)
        got = mlp.train(mlp.init(cfg), data.features, data.labels)
        assert_same_model(got, reference_train(mlp.init(cfg), data.features, data.labels))

    @given(problem=training_problems())
    @settings(max_examples=60, deadline=None)
    def test_train_matches_allocating_reference_on_small_shapes(self, problem):
        cfg, X, y = problem
        assert_same_model(mlp.train(mlp.init(cfg), X, y),
                          reference_train(mlp.init(cfg), X, y))

    @given(problem=training_problems())
    @settings(max_examples=40, deadline=None)
    def test_predict_is_softmax_of_cached_forward(self, problem):
        cfg, X, y = problem
        model = mlp.train(mlp.init(cfg), X, y)
        _, _, probs = mlp._forward_cached(model, X)
        assert_bits_equal(mlp.predict_proba(model, X), probs)

    def test_train_peak_memory_stays_near_two_parameter_copies(self):
        # velocity plus one reused gradient buffer is 2x; per-step
        # temporaries of weight size would push the peak to about 4x
        cfg = MlpConfig(layer_sizes=(8, 600, 400, 2), epochs=1, batch_size=4, seed=3)
        data = gaussian_blobs(16, 8, 2, seed=3)
        model = mlp.init(cfg)
        param_bytes = sum(p.nbytes for p in model.weights + model.biases)
        peak = traced_peak(mlp.train, model, data.features, data.labels)
        assert peak < 2.5 * param_bytes, f"peak {peak / param_bytes:.2f}x parameter bytes"

    def test_predict_peak_memory_is_one_pair_of_activation_blocks(self):
        # the 2000 x 600 block and the 2000 x 400 block built from it; holding
        # every pre-activation and activation at once is about 2x this
        model = mlp.init(MlpConfig(layer_sizes=(8, 600, 400, 2), seed=3))
        X = gaussian_blobs(2000, 8, 2, seed=3).features
        block_bytes = 2000 * (600 + 400) * 8
        peak = traced_peak(mlp.predict_proba, model, X)
        assert peak < 1.25 * block_bytes, f"peak {peak / block_bytes:.2f}x block bytes"

    def test_gradients_return_fresh_arrays_every_call(self, rng):
        model = mlp.init(MlpConfig(layer_sizes=(4, 6, 5, 3), seed=2))
        X, y = rng.standard_normal((10, 4)), rng.integers(0, 3, size=10)
        first_w, first_b = mlp.gradients(model, X, y)
        kept = [g.copy() for g in first_w + first_b]
        second_w, second_b = mlp.gradients(model, X[::-1], y[::-1])
        arrays = first_w + first_b + second_w + second_b
        for i, a in enumerate(arrays):
            assert a.base is None
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        for g, before in zip(first_w + first_b, kept):
            assert_bits_equal(g, before)

    def test_train_and_predict_leave_inputs_untouched(self):
        data = gaussian_blobs(40, 3, 2, seed=12)
        X, y = data.features.copy(), data.labels.copy()
        X.setflags(write=False)
        y.setflags(write=False)
        cfg = MlpConfig(layer_sizes=(3, 5, 2), epochs=2, batch_size=6, seed=1)
        model = mlp.train(mlp.init(cfg), X, y)
        mlp.predict_proba(model, X)
        assert_bits_equal(X, data.features)
        assert_bits_equal(y, data.labels)


class TestRowIndex:
    """train(model, X, y, rows) trains on X[rows] and y[rows] without copying them."""

    @pytest.mark.parametrize("n_rows, batch_size", [
        (90, 8),     # a full-size bootstrap; 90 = 11 x 8 + 2: partial last batch
        (90, 128),   # one batch holds every row
        (50, 16),    # fewer rows than the block; 50 = 3 x 16 + 2
    ])
    def test_bootstrap_rows_match_training_on_their_copy(self, n_rows, batch_size):
        data = gaussian_blobs(90, 5, 3, seed=31)
        X, y = data.features, data.labels
        assert not X.flags.writeable
        # a delete-one-segment plan: the kept rows, then bootstrap draws from them
        idx = materialize(build_plan(90, 7, seed=4), 2)[-n_rows:]
        assert np.unique(idx).size < idx.size
        cfg = MlpConfig(layer_sizes=(5, 9, 3), epochs=3, batch_size=batch_size,
                        learning_rate=0.05, seed=5)
        assert_same_model(mlp.train(mlp.init(cfg), X, y, rows=idx),
                          mlp.train(mlp.init(cfg), X[idx], y[idx]))
        assert_bits_equal(X, data.features)

    @given(problem=training_problems(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_training_on_their_copy_on_small_shapes(self, problem, data):
        cfg, X, y = problem
        idx = np.array(data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1,
                                          max_size=30)))
        assert_same_model(mlp.train(mlp.init(cfg), X, y, rows=idx),
                          mlp.train(mlp.init(cfg), X[idx], y[idx]))

    @pytest.mark.parametrize("rows", [
        np.array([], dtype=np.int64),
        np.array([[0, 1], [2, 3]]),
        np.array([0.0, 1.0]),
        np.array([True, False, True, False, True, False]),
        np.array([0, 6]),
        np.array([-1, 0]),
        3,
    ], ids=["empty", "2-D", "float", "mask", "past the end", "negative", "scalar"])
    def test_bad_rows_rejected(self, rows):
        cfg = MlpConfig(layer_sizes=(2, 4, 2), epochs=1)
        X, y = np.zeros((6, 2)), np.array([0, 1, 0, 1, 0, 1])
        with pytest.raises(ContractError, match="rows"):
            mlp.train(mlp.init(cfg), X, y, rows=rows)

    def test_training_through_rows_holds_no_copy_of_the_rows(self):
        # the 6000 x 50 block is 2.4 MB; the model, its velocity, one batch and
        # one epoch's shuffled index together are under 0.1 MB
        data = gaussian_blobs(6000, 50, 3, seed=7)
        idx = materialize(build_plan(6000, 7, seed=1), 0)
        model = mlp.init(MlpConfig(layer_sizes=(50, 16, 3), epochs=1, batch_size=64))
        peak = traced_peak(mlp.train, model, data.features, data.labels, idx)
        assert peak < 0.1 * data.features.nbytes, f"peak {peak / 1e6:.2f} MB"


def one_block_proba(model, X):
    """predict_proba as one block: every row through each layer at once."""
    a = X
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ W.T + b, 0.0)
    return softmax(a @ model.weights[-1].T + model.biases[-1])


class TestBoundedWorkingMemory:
    @pytest.mark.parametrize("n_rows", [0, 1, 1024, 1025])
    def test_predict_matches_one_block_formula(self, n_rows):
        # predict_proba scores 1,024 rows per block
        model = mlp.init(MlpConfig(layer_sizes=(6, 40, 30, 3), seed=8))
        X = np.random.default_rng(n_rows).standard_normal((n_rows, 6))
        got, expected = mlp.predict_proba(model, X), one_block_proba(model, X)
        if n_rows <= 1024:
            assert_bits_equal(got, expected)
        else:
            # another block shape may move the BLAS result by an ulp
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_predict_peak_memory_is_set_by_the_model_not_the_rows(self):
        # one block through 57-1200-800-2 holds 1024 x 2000 doubles, 16.4 MB;
        # scoring all 4,000 rows at once peaks near 64 MB
        model = mlp.init(MlpConfig(layer_sizes=(57, 1200, 800, 2), seed=1))
        X = gaussian_blobs(4000, 57, 2, seed=5).features
        peak = traced_peak(mlp.predict_proba, model, X)
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"

    def test_train_takes_few_page_faults_in_a_fresh_process(self):
        # per-step activations of 512 x 128 doubles are above glibc's mmap
        # threshold; allocated per step they are mapped and faulted in again
        faults = fresh_process_minor_faults(
            "from votestack import MlpConfig, gaussian_blobs, mlp\n"
            "data = gaussian_blobs(2400, 20, 3, seed=5)\n"
            "model = mlp.init(MlpConfig(layer_sizes=(20, 128, 64, 3), epochs=25,"
            " batch_size=512, seed=1))",
            "mlp.train(model, data.features, data.labels)")
        assert faults < 5000, f"{faults} minor faults"


# Every fan-in below 32, so OpenBLAS computes the row-split forward GEMMs with
# the kernel of the whole ones; the 40-unit layer splits in both passes.
SPLIT_SIZES = (6, 20, 40, 4)


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Gradient blocks of 120 entries and hidden sub-blocks of 16 rows."""
    monkeypatch.setattr(mlp, "_GRAD_ENTRIES", 120)
    monkeypatch.setattr(mlp, "_HIDDEN_ROWS", 16)


class TestFusedBackward:
    def test_tiny_blocks_split_the_forty_unit_layer(self, tiny_blocks):
        model = mlp.init(MlpConfig(layer_sizes=SPLIT_SIZES))
        assert len(mlp._row_blocks(model.weights[1])) >= 3
        assert len(mlp._row_blocks(model.weights[2])) >= 2
        assert len(mlp.spans(60, mlp._HIDDEN_ROWS)) >= 3

    @pytest.mark.parametrize("batch_size, momentum", [(8, 0.9), (30, 0.0), (3, 0.5)])
    def test_train_matches_reference_when_gradient_blocks_split(self, tiny_blocks,
                                                                 batch_size, momentum):
        data = gaussian_blobs(30, 6, 4, seed=23)
        cfg = MlpConfig(layer_sizes=SPLIT_SIZES, epochs=3, batch_size=batch_size,
                        learning_rate=0.05, momentum=momentum, seed=6)
        got = mlp.train(mlp.init(cfg), data.features, data.labels)
        assert_same_model(got, reference_train(mlp.init(cfg), data.features, data.labels))

    def test_gradients_match_whole_matrix_reference_when_blocks_split(self, tiny_blocks,
                                                                      rng):
        model = mlp.init(MlpConfig(layer_sizes=SPLIT_SIZES, seed=9))
        for b in model.biases:
            b[:] = rng.normal(scale=0.5, size=b.shape)
        X, y = rng.standard_normal((11, 6)), rng.integers(0, 4, size=11)
        grad_w, grad_b = mlp.gradients(model, X, y)
        _, ref_w, ref_b = reference_gradients(model, X, y)
        for got, expected in zip(grad_w + grad_b, ref_w + ref_b, strict=True):
            assert_bits_equal(got, expected)

    @pytest.mark.parametrize("n_rows", [60, 100])
    def test_predict_matches_one_block_formula_when_hidden_layers_split(
            self, tiny_blocks, monkeypatch, n_rows):
        # 40-row blocks: 100 rows end in a 20-row block whose two sub-blocks
        # are wider than the first block's three
        monkeypatch.setattr(mlp, "PREDICT_ROWS", 40)
        model = mlp.init(MlpConfig(layer_sizes=SPLIT_SIZES, seed=8))
        X = np.random.default_rng(n_rows).standard_normal((n_rows, 6))
        expected = np.concatenate([one_block_proba(model, X[s:s + 40])
                                   for s in range(0, n_rows, 40)])
        assert_bits_equal(mlp.predict_proba(model, X), expected)

    def test_paper_width_learner_matches_reference(self):
        # 600 rows at batch 32 end in a 24-row batch; the 800 x 1200 layer's
        # gradient comes in row blocks of about 54 rows
        data = gaussian_blobs(600, 57, 2, seed=11)
        cfg = MlpConfig(layer_sizes=(57, 1200, 800, 2), epochs=1, batch_size=32, seed=2)
        got = mlp.train(mlp.init(cfg), data.features, data.labels)
        assert len(mlp._row_blocks(got.weights[1])) > 1
        assert_same_model(got, reference_train(mlp.init(cfg), data.features, data.labels))

    def test_train_peak_memory_is_parameters_plus_velocity_plus_one_block(self):
        # the velocity is 1x; a weight-sized gradient buffer would add another 1x
        cfg = MlpConfig(layer_sizes=(8, 600, 400, 2), epochs=1, batch_size=4, seed=3)
        data = gaussian_blobs(16, 8, 2, seed=3)
        model = mlp.init(cfg)
        param_bytes = sum(p.nbytes for p in model.weights + model.biases)
        peak = traced_peak(mlp.train, model, data.features, data.labels)
        assert peak < 1.3 * param_bytes, f"peak {peak / param_bytes:.2f}x parameter bytes"

    def test_predict_holds_only_the_last_hidden_layer_at_full_block_height(self):
        # one 1024 x 800 block of the last hidden layer is 6.6 MB and one
        # sub-block of the first at most 1.8 MB; a 1024 x 1200 block of the
        # first hidden layer as well would make it 16.4 MB
        model = mlp.init(MlpConfig(layer_sizes=(57, 1200, 800, 2), seed=1))
        X = gaussian_blobs(4000, 57, 2, seed=5).features
        peak = traced_peak(mlp.predict_proba, model, X)
        assert peak < 9e6, f"peak {peak / 1e6:.1f} MB"


class TestSaveLoad:
    def test_round_trip_preserves_predictions(self, tmp_path, rng):
        data = gaussian_blobs(80, 4, 3, seed=6)
        cfg = MlpConfig(layer_sizes=(4, 10, 3), epochs=3, seed=4)
        model = mlp.train(mlp.init(cfg), data.features, data.labels)
        path = mlp.save(model, tmp_path / "m.mlp")
        back = mlp.load(path)
        assert back.config == model.config
        assert back.loss_trace == model.loss_trace
        X = rng.standard_normal((100, 4))
        np.testing.assert_array_equal(
            mlp.predict_proba(back, X), mlp.predict_proba(model, X)
        )

    def test_save_and_load_hold_no_second_copy_of_the_weights(self, tmp_path):
        # each array is written from and read into its own buffer; a bytes
        # copy on either side would add one more copy of every weight
        model = mlp.init(MlpConfig(layer_sizes=(4, 600, 400, 2), seed=2))
        param_bytes = sum(p.nbytes for p in model.weights + model.biases)
        path = tmp_path / "m.mlp"
        saved = traced_peak(mlp.save, model, path)
        loaded = traced_peak(mlp.load, path)
        assert saved < 0.1 * param_bytes, f"save peak {saved / param_bytes:.2f}x"
        assert loaded < 1.1 * param_bytes, f"load peak {loaded / param_bytes:.2f}x"

    def test_corrupt_magic_rejected(self, tmp_path):
        model = mlp.init(MlpConfig(layer_sizes=(2, 3, 2)))
        path = mlp.save(model, tmp_path / "m.mlp")
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            mlp.load(path)

    def test_previous_format_version_rejected(self, tmp_path):
        model = mlp.init(MlpConfig(layer_sizes=(2, 3, 2)))
        path = mlp.save(model, tmp_path / "m.mlp")
        raw = bytearray(path.read_bytes())
        raw[8:10] = (mlp.MLP_FORMAT_VERSION - 1).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="format version 1 unsupported"):
            mlp.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = mlp.init(MlpConfig(layer_sizes=(2, 3, 2)))
        path = mlp.save(model, tmp_path / "m.mlp")
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(DataError):
            mlp.load(path)

    def test_write_failing_mid_file_leaves_no_partial_file(self, tmp_path):
        path = mlp.save(mlp.init(MlpConfig(layer_sizes=(2, 3, 2))), tmp_path / "m.mlp")
        before = path.read_bytes()
        broken = mlp.init(MlpConfig(layer_sizes=(2, 3, 2), seed=1))
        # The last array fails conversion after the header and three arrays
        # have been written.
        broken.biases[1] = np.array(["not a number"], dtype=object)
        for target in (path, tmp_path / "fresh.mlp"):
            with pytest.raises(ValueError):
                mlp.save(broken, target)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.mlp"]

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_data_error_naming_it(self, tmp_path, kind):
        path = tmp_path / "m.mlp"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=re.escape(str(path))):
            mlp.load(path)

    @pytest.mark.parametrize("case", MALFORMED_MODEL_CASES)
    def test_malformed_file_is_data_error_naming_path(self, tmp_path, case):
        path = mlp.save(mlp.init(MlpConfig(layer_sizes=(2, 3, 2))), tmp_path / "m.mlp")
        write_malformed_model(path, mlp.MLP_MAGIC, mlp.MLP_FORMAT_VERSION, case,
                              bad_config={"layer_sizes": [1, 2]})
        with pytest.raises(DataError, match=re.escape(str(path))):
            mlp.load(path)

    @FUZZ_SETTINGS
    @given(edits=FILE_EDITS)
    def test_mutated_file_loads_or_raises_votestack_error(self, tmp_path_factory, edits):
        # An untrained model's zero biases put runs of zero bytes in the file,
        # which a misaligned read takes as array dimensions.
        path = tmp_path_factory.getbasetemp() / "fuzzed.mlp"
        model = mlp.init(MlpConfig(layer_sizes=(3, 4, 2)))
        path.write_bytes(apply_edits(mlp.save(model, path).read_bytes(), edits))
        with wall_bound(LOAD_WALL_S):
            try:
                mlp.load(path)
            except VoteStackError:
                pass


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: at paper width, model bytes depend on "
                          "the BLAS thread count")
def test_paper_width_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys\n"
            "from votestack import MlpConfig, gaussian_blobs, mlp\n"
            "data = gaussian_blobs(1200, 57, 2, seed=3)\n"
            "cfg = MlpConfig(layer_sizes=(57, 1200, 800, 2), epochs=1, batch_size=32)\n"
            "mlp.save(mlp.train(mlp.init(cfg), data.features, data.labels), sys.argv[1])\n")
    models = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        path = tmp_path / f"threads_{threads}.mlp"
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, timeout=300,
                       check=True)
        models.append(path.read_bytes())
    assert models[0] == models[1]
