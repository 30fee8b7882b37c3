import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votestack import (
    BoostConfig,
    BoostedModel,
    ConfigError,
    DataError,
    boosting,
    gaussian_blobs,
)
from votestack.numerics import cross_entropy, softmax

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


def presort(X):
    """The per-fit column order `boosting.fit` hands to `_grow_tree`."""
    return np.argsort(X.T, axis=1, kind="stable")


def grow(X, g, h, cfg):
    """One tree grown from gradients and hessians as `boosting.fit` grows it."""
    return boosting._grow_tree(np.ascontiguousarray(X.T), presort(X), g, h, cfg)


def reference_split(X, rows, g, h, cfg):
    """Best (gain, feature, threshold) at the node `rows` (ascending), or None.

    Takes a stable argsort of every feature at the node and scores one
    (feature, position) candidate at a time, keeping the first strictly
    better one, so ties go to the first feature, then the first position.
    """
    lam, mcw = cfg.l2_lambda, cfg.min_child_weight
    gs, hs = g[rows], h[rows]
    G, H = gs.sum(), hs.sum()
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[rows, f], kind="stable")
        xs = X[rows, f][order]
        gl, hl = np.cumsum(gs[order]), np.cumsum(hs[order])
        for k in range(rows.size - 1):
            gr, hr = G - gl[k], H - hl[k]
            if (xs[k + 1] > xs[k] and hl[k] >= mcw and hr >= mcw
                    and hl[k] + lam > 0 and hr + lam > 0):
                gain = 0.5 * (gl[k] * gl[k] / (hl[k] + lam) + gr * gr / (hr + lam)
                              - G * G / (H + lam))
                if best is None or gain > best[0]:
                    best = (gain, f, (xs[k] + xs[k + 1]) / 2.0)
    return best


def reference_tree(X, g, h, cfg):
    """Exact greedy tree from `reference_split`: the rows of `to_matrix`."""
    nodes = []

    def build(rows, depth):
        node = len(nodes)
        nodes.append([-1.0, 0.0, -1.0, -1.0, 0.0])
        best = None
        if depth < cfg.max_depth and rows.size >= 2:
            best = reference_split(X, rows, g, h, cfg)
        if best is not None and best[0] >= 0.0:
            _, f, thr = best
            mask = X[rows, f] < thr
            if mask.any() and not mask.all():
                nodes[node][:2] = [f, thr]
                nodes[node][2] = build(rows[mask], depth + 1)
                nodes[node][3] = build(rows[~mask], depth + 1)
                return node
        nodes[node][4] = -g[rows].sum() / (h[rows].sum() + cfg.l2_lambda)
        return node

    build(np.arange(X.shape[0]), 0)
    return np.array(nodes)


def reference_fit(X, y, cfg, n_classes):
    """`boosting.fit` with `reference_tree`: (tree matrices, loss trace)."""
    margins = np.zeros((X.shape[0], n_classes))
    onehot = np.eye(n_classes)[y]
    mats, loss_trace = [], [cross_entropy(softmax(margins), y)]
    for _ in range(cfg.rounds):
        probs = softmax(margins)
        grad, hess = probs - onehot, probs * (1.0 - probs)
        round_mats = [reference_tree(X, grad[:, c], hess[:, c], cfg) for c in range(n_classes)]
        for c, mat in enumerate(round_mats):
            margins[:, c] += cfg.learning_rate * boosting.RegressionTree.from_matrix(mat).predict(X)
        mats.append(round_mats)
        loss_trace.append(cross_entropy(softmax(margins), y))
    return mats, loss_trace


@st.composite
def boosting_problems(draw):
    """Small fits whose columns repeat values, and some of which are constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_features = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 3))
    levels = draw(st.sampled_from([2, 3, 7, None]))
    if levels is None:
        X = rng.standard_normal((n, n_features))
    else:
        X = rng.integers(0, levels, size=(n, n_features)) * 0.5
    constant = draw(st.lists(st.booleans(), min_size=n_features, max_size=n_features))
    X[:, constant] = X[0, constant]
    y = rng.integers(0, n_classes, size=n)
    y[:2] = [0, 1]
    cfg = BoostConfig(
        rounds=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 4)),
        l2_lambda=draw(st.sampled_from([0.0, 0.5, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 0.1, 0.5, 2.0])),
    )
    return X, y, cfg, n_classes


GOLDEN_GBT_DIGEST = "7def7f1af91a1fe011eb955461a19dfc96ed310db5094af88a809e5c97e26268"

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
        tree = grow(np.array([[0.0]]), np.array([2.0]), np.array([1.0]), BoostConfig())
        assert tree.leaf_value[0] == -1.0
        assert tree.feature[0] == -1

    def test_zero_hessian_side_without_lambda_is_skipped(self):
        # With lambda 0, cutting after the first row leaves a left side of
        # hessian 0 and a 0/0 gain; that candidate is invalid, and the best
        # valid cut at 1.5 (gain 0.5 * (1/1 + 4/2 - 1/3) = 4/3) is taken.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([0.0, -1.0, 1.0, 1.0])
        h = np.array([0.0, 1.0, 1.0, 1.0])
        cfg = BoostConfig(max_depth=1, l2_lambda=0.0, min_child_weight=0.0)
        tree = grow(X, g, h, cfg)
        assert (tree.feature[0], tree.threshold[0]) == (0, 1.5)
        assert tree.leaf_value[tree.left[0]] == 1.0
        assert tree.leaf_value[tree.right[0]] == -1.0

    def test_child_at_exactly_min_child_weight_is_allowed(self):
        # At zero margins every hessian is 0.25, so the cut at 1.5 leaves
        # exactly min_child_weight = 0.5 on each side, which is enough.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        cfg = BoostConfig(rounds=1, max_depth=1, min_child_weight=0.5)
        tree = boosting.fit(X, np.array([0, 0, 1, 1]), cfg).trees[0][0]
        assert (tree.feature[0], tree.threshold[0]) == (0, 1.5)

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

    @given(problem=boosting_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_node_argsort_reference(self, problem):
        X, y, cfg, n_classes = problem
        model = boosting.fit(X, y, cfg, n_classes=n_classes)
        mats, loss_trace = reference_fit(X, y, cfg, n_classes)
        assert model.loss_trace == loss_trace
        assert len(model.trees) == len(mats)
        for round_trees, round_mats in zip(model.trees, mats):
            for tree, mat in zip(round_trees, round_mats, strict=True):
                np.testing.assert_array_equal(tree.to_matrix(), mat)

    @given(problem=boosting_problems(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_root_split_gain_matches_reference_bit_for_bit(self, problem, seed):
        # Unrounded gradients make the gain depend on the summation order,
        # which the stable presort must keep; some hessians are zero.
        X, _, cfg, _ = problem
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(X.shape[0])
        h = rng.uniform(0.0, 1.0, X.shape[0]) * (rng.random(X.shape[0]) < 0.8)
        order = presort(X)
        found = boosting._best_split(np.take_along_axis(X.T, order, axis=1), g[order],
                                     h[order], g.sum(), h.sum(), cfg.l2_lambda,
                                     cfg.min_child_weight)
        assert found == reference_split(X, np.arange(X.shape[0]), g, h, cfg)

    def test_featureless_matrix_rejected(self):
        # load rejects n_features 0, so fit must not produce such a model
        from votestack import ContractError

        with pytest.raises(ContractError, match="at least one column"):
            boosting.fit(np.zeros((4, 0)), np.array([0, 1, 0, 1]), BoostConfig())

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

    def test_golden_model_digest(self, tmp_path):
        """Pin the exact `.gbt` bytes of one fixed fit.

        Rounding to one decimal makes every column repeat values, so the
        digest also pins how ties are ordered and broken. Like the run
        artifact digests in test_harness.py, it is tied to the numpy build
        it was recorded with (numpy 2.4.6, OpenBLAS 0.3.31, x86-64).
        """
        data = gaussian_blobs(240, 5, 3, seed=53)
        model = boosting.fit(np.round(data.features, 1), data.labels,
                             BoostConfig(rounds=8, max_depth=3))
        path = boosting.save(model, tmp_path / "m.gbt")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_GBT_DIGEST

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

    @pytest.mark.parametrize("case", MALFORMED_MODEL_CASES + (
        # Counts below 1, with the tree count their round/class grid implies.
        pytest.param(({"n_features": -3}, 2), id="n_features -3"),
        pytest.param(({"n_features": 0}, 2), id="n_features 0"),
        pytest.param(({"n_classes": 0}, 0), id="n_classes 0"),
        pytest.param(({"rounds": 0}, 0), id="rounds 0"),
        pytest.param(({"n_classes": 0, "n_features": -3}, 0), id="n_classes 0, n_features -3"),
    ))
    def test_malformed_file_is_data_error_naming_path(self, tmp_path, case):
        model = boosting.fit(np.array([[0.0], [1.0]]), np.array([0, 1]), TWO_POINT_CONFIG)
        path = boosting.save(model, tmp_path / "m.gbt")
        write_malformed_model(path, boosting.GBT_MAGIC, boosting.GBT_FORMAT_VERSION, case,
                              bad_config={"rounds": 0})
        with pytest.raises(DataError, match=re.escape(str(path))):
            boosting.load(path)
