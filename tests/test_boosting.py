import math
import re

import numpy as np
import pytest

from votestack import (
    BoostConfig,
    BoostedModel,
    ConfigError,
    DataError,
    boosting,
    gaussian_blobs,
)

from conftest import MALFORMED_MODEL_CASES, write_malformed_model


def walk(tree, x):
    """Reference single-row tree descent."""
    i = 0
    while tree.feature[i] != -1:
        i = tree.left[i] if x[tree.feature[i]] < tree.threshold[i] else tree.right[i]
    return tree.leaf_value[i]


def depth(tree, node=0):
    """Longest root-to-leaf edge count, by traversal."""
    if tree.feature[node] == -1:
        return 0
    return 1 + max(depth(tree, tree.left[node]), depth(tree, tree.right[node]))


TWO_POINT_CONFIG = BoostConfig(
    rounds=1, max_depth=1, learning_rate=0.3, l2_lambda=1.0, min_child_weight=0.0
)


class TestConfig:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigError, match="rounds"):
            BoostConfig(rounds=0)

    def test_invalid_settings_rejected(self):
        with pytest.raises(ConfigError):
            BoostConfig(max_depth=0)
        with pytest.raises(ConfigError):
            BoostConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            BoostConfig(l2_lambda=-0.1)
        with pytest.raises(ConfigError):
            BoostConfig(min_child_weight=-1.0)

    def test_dict_round_trip(self):
        cfg = BoostConfig(rounds=7, max_depth=2, learning_rate=0.1)
        assert BoostConfig.from_dict(cfg.to_dict()) == cfg


class TestLeafWeights:
    def test_newton_step_with_unit_regularizer(self):
        # one row forces a leaf; gradient 2, hessian 1, lambda 1 -> -2/(1+1)
        tree = boosting._grow_tree(
            np.array([[0.0]]), np.array([2.0]), np.array([1.0]), BoostConfig()
        )
        assert tree.leaf_value[0] == -1.0
        assert tree.feature[0] == -1

    def test_two_point_stump_hand_computed(self):
        # At zero margins both classes sit at p = 0.5, so for the class-0
        # tree g = [-0.5, +0.5] and h = [0.25, 0.25]. The only split has
        # gain 0.5 * (0.25/1.25 + 0.25/1.25) = 0.2 and leaves -G/(H+lambda)
        # = +/-0.4; shrinkage 0.3 leaves margins of +/-0.12.
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = boosting.fit(X, y, TWO_POINT_CONFIG)
        tree = model.trees[0][0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 0.5
        assert tree.leaf_value[tree.left[0]] == pytest.approx(0.4, abs=1e-15)
        assert tree.leaf_value[tree.right[0]] == pytest.approx(-0.4, abs=1e-15)
        margins = boosting.predict_margins(model, X)
        np.testing.assert_allclose(
            margins, [[0.12, -0.12], [-0.12, 0.12]], atol=1e-15
        )

    def test_min_child_weight_blocks_tiny_children(self):
        # each side would carry hessian 0.25 < 1, so the root stays a leaf
        # with G = 0, and the model predicts the uniform distribution
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        cfg = BoostConfig(rounds=1, max_depth=1, min_child_weight=1.0)
        model = boosting.fit(X, y, cfg)
        np.testing.assert_array_equal(
            boosting.predict_proba(model, X), [[0.5, 0.5], [0.5, 0.5]]
        )


class TestFit:
    def test_empty_model_predicts_uniform_four_way(self):
        model = BoostedModel(BoostConfig(), n_features=2, n_classes=4, trees=[])
        probs = boosting.predict_proba(model, np.zeros((3, 2)))
        np.testing.assert_array_equal(probs, 0.25)

    def test_single_label_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            boosting.fit(np.zeros((4, 2)), np.zeros(4, dtype=int), BoostConfig())

    def test_xor_reaches_perfect_training_accuracy(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        cfg = BoostConfig(rounds=20, max_depth=2, min_child_weight=0.0)
        model = boosting.fit(X, y, cfg)
        np.testing.assert_array_equal(boosting.predict_label(model, X), y)

    def test_xor_impossible_at_depth_one(self):
        # a depth-1 tree is a threshold on one axis, which cannot separate
        # the exclusive-or layout no matter how many rounds run
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        cfg = BoostConfig(rounds=20, max_depth=1, min_child_weight=0.0)
        model = boosting.fit(X, y, cfg)
        acc = np.mean(boosting.predict_label(model, X) == y)
        assert acc <= 0.75

    def test_loss_trace_starts_at_log_c_and_never_increases(self):
        data = gaussian_blobs(150, 4, 3, seed=17)
        model = boosting.fit(data.features, data.labels, BoostConfig(rounds=30))
        assert len(model.loss_trace) == 31
        assert abs(model.loss_trace[0] - math.log(3)) < 1e-12
        diffs = np.diff(model.loss_trace)
        assert np.all(diffs <= 1e-9)

    def test_depth_bound_holds_by_traversal(self):
        data = gaussian_blobs(120, 5, 2, seed=23)
        model = boosting.fit(data.features, data.labels, BoostConfig(rounds=8, max_depth=3))
        for round_trees in model.trees:
            for tree in round_trees:
                assert depth(tree) <= 3

    def test_deterministic(self):
        data = gaussian_blobs(100, 3, 2, seed=31)
        a = boosting.fit(data.features, data.labels, BoostConfig(rounds=5))
        b = boosting.fit(data.features, data.labels, BoostConfig(rounds=5))
        np.testing.assert_array_equal(
            boosting.predict_margins(a, data.features),
            boosting.predict_margins(b, data.features),
        )

    def test_explicit_class_count_covers_absent_classes(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 2, 2])
        model = boosting.fit(X, y, BoostConfig(rounds=3), n_classes=3)
        probs = boosting.predict_proba(model, X)
        assert probs.shape == (4, 3)
        assert set(boosting.predict_label(model, X).tolist()) <= {0, 1, 2}

    def test_labels_beyond_declared_classes_rejected(self):
        from votestack import ContractError

        with pytest.raises(ContractError, match="class count"):
            boosting.fit(np.zeros((3, 1)), np.array([0, 1, 2]), BoostConfig(), n_classes=2)


class TestPredict:
    def test_depth_one_model_is_piecewise_constant(self):
        X = np.array([[0.0], [1.0]])
        model = boosting.fit(X, np.array([0, 1]), TWO_POINT_CONFIG)
        probe = np.array([[0.0], [0.2], [0.49], [0.51], [1.0]])
        probs = boosting.predict_proba(model, probe)
        for row in probs[1:3]:
            np.testing.assert_array_equal(row, probs[0])
        np.testing.assert_array_equal(probs[4], probs[3])
        assert not np.array_equal(probs[0], probs[3])

    def test_margins_match_per_row_tree_walk(self, rng):
        data = gaussian_blobs(50, 3, 3, seed=41)
        model = boosting.fit(data.features, data.labels, BoostConfig(rounds=6, max_depth=3))
        got = boosting.predict_margins(model, data.features)
        lr = model.config.learning_rate
        expected = np.zeros_like(got)
        for r, x in enumerate(data.features):
            for round_trees in model.trees:
                for c, tree in enumerate(round_trees):
                    expected[r, c] += lr * walk(tree, x)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_proba_rows_sum_to_one(self):
        data = gaussian_blobs(60, 2, 3, seed=43)
        model = boosting.fit(data.features, data.labels, BoostConfig(rounds=4))
        probs = boosting.predict_proba(model, data.features)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_feature_width_mismatch_rejected(self):
        from votestack import ContractError

        X = np.array([[0.0], [1.0]])
        model = boosting.fit(X, np.array([0, 1]), TWO_POINT_CONFIG)
        with pytest.raises(ContractError, match="features"):
            boosting.predict_margins(model, np.zeros((2, 3)))


class TestSaveLoad:
    def test_round_trip_preserves_predictions(self, tmp_path, rng):
        data = gaussian_blobs(80, 4, 3, seed=47)
        model = boosting.fit(data.features, data.labels, BoostConfig(rounds=5, max_depth=2))
        path = boosting.save(model, tmp_path / "m.gbt")
        back = boosting.load(path)
        assert back.config == model.config
        assert back.n_classes == model.n_classes
        assert back.loss_trace == model.loss_trace
        X = rng.standard_normal((100, 4))
        np.testing.assert_array_equal(
            boosting.predict_margins(back, X), boosting.predict_margins(model, X)
        )

    def test_corrupt_magic_rejected(self, tmp_path):
        X = np.array([[0.0], [1.0]])
        model = boosting.fit(X, np.array([0, 1]), TWO_POINT_CONFIG)
        path = boosting.save(model, tmp_path / "m.gbt")
        raw = bytearray(path.read_bytes())
        raw[1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            boosting.load(path)

    def test_previous_format_version_rejected(self, tmp_path):
        model = boosting.fit(np.array([[0.0], [1.0]]), np.array([0, 1]), TWO_POINT_CONFIG)
        path = boosting.save(model, tmp_path / "m.gbt")
        raw = bytearray(path.read_bytes())
        raw[8:10] = (boosting.GBT_FORMAT_VERSION - 1).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="format version 1 unsupported"):
            boosting.load(path)

    @pytest.mark.parametrize("case", MALFORMED_MODEL_CASES)
    def test_malformed_file_is_data_error_naming_path(self, tmp_path, case):
        model = boosting.fit(np.array([[0.0], [1.0]]), np.array([0, 1]), TWO_POINT_CONFIG)
        path = boosting.save(model, tmp_path / "m.gbt")
        write_malformed_model(path, boosting.GBT_MAGIC, boosting.GBT_FORMAT_VERSION, case,
                              bad_config={"rounds": 0})
        with pytest.raises(DataError, match=re.escape(str(path))):
            boosting.load(path)
