from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votestack import (
    BoostConfig,
    ConfigError,
    ContractError,
    FusionOutcome,
    PredictionMatrix,
    REJECTED,
    apply_filtered,
    boosting,
    fit_filtered,
    majority_vote,
    model_average,
    plurality_vote,
)
from votestack.fusion import (
    ROUTE_CONFIDENT,
    ROUTE_FALLBACK,
    ROUTE_META,
    ROUTES,
    _level1_features,
    tally,
)

from conftest import one_hot_pm, random_pm, traced_peak

CONFIDENT, META, FALLBACK = (ROUTES.index(r)
                             for r in (ROUTE_CONFIDENT, ROUTE_META, ROUTE_FALLBACK))

FAST_BOOST = BoostConfig(rounds=10, max_depth=3)


def plain_stacking(pm_train, labels, pm_test, mode="proba"):
    """Stacking without a confident vote: the filter at threshold n+1."""
    fitted = fit_filtered(pm_train, labels, FAST_BOOST, pm_train.n_learners + 1, mode)
    return fitted, apply_filtered(fitted, pm_test)


def reference_plurality(votes, n_classes):
    """Counter-based oracle; ties break toward the lowest label."""
    n, s = votes.shape
    out = np.empty(s, dtype=np.int64)
    for i in range(s):
        counts = Counter(votes[:, i].tolist())
        best = max(counts.values())
        out[i] = min(label for label, c in counts.items() if c == best)
    return out


class TestPredictionMatrix:
    def test_basic_shape_properties(self, rng):
        pm = random_pm(rng, 3, 5, 4)
        assert (pm.n_learners, pm.n_samples, pm.n_classes) == (3, 5, 4)
        assert pm.votes().shape == (3, 5)

    def test_votes_tie_breaks_toward_lowest_class(self):
        pm = PredictionMatrix(np.full((1, 2, 2), 0.5))
        np.testing.assert_array_equal(pm.votes(), [[0, 0]])

    def test_rejects_non_3d(self):
        with pytest.raises(ContractError, match="3-D"):
            PredictionMatrix(np.full((2, 2), 0.5))
        with pytest.raises(ContractError, match="one sample"):
            PredictionMatrix(np.zeros((3, 0, 2)))

    def test_rejects_single_class(self):
        with pytest.raises(ContractError, match="2 classes"):
            PredictionMatrix(np.ones((2, 3, 1)))

    def test_rejects_negative_probability(self):
        probs = np.full((1, 1, 2), 0.5)
        probs[0, 0] = [-0.1, 1.1]
        with pytest.raises(ContractError, match=r"\[0, 1\]"):
            PredictionMatrix(probs)
        with pytest.raises(ContractError, match="finite"):
            PredictionMatrix(np.full((2, 3, 2), np.nan))

    def test_rejects_rows_not_summing_to_one(self):
        with pytest.raises(ContractError, match="sum to 1"):
            PredictionMatrix(np.full((1, 1, 2), 0.4))

    def test_validation_holds_one_row_sum_block(self, rng):
        # the tensor plus one learners x samples block of row sums; taking
        # abs(sums - 1) out of place holds three such blocks, 2x the tensor
        blocks = [rng.dirichlet(np.ones(3), size=2400) for _ in range(7)]
        tensor_bytes = 7 * 2400 * 3 * 8
        peak = traced_peak(PredictionMatrix, blocks)
        assert peak < 1.4 * tensor_bytes, f"peak {peak / tensor_bytes:.2f}x tensor bytes"

    def test_tensor_is_frozen_copy(self, rng):
        raw = rng.dirichlet(np.ones(3), size=(2, 4))
        pm = PredictionMatrix(raw)
        original = raw[0, 0].copy()
        raw[0, 0] = [1.0, 0.0, 0.0]
        np.testing.assert_array_equal(pm.probs[0, 0], original)
        with pytest.raises(ValueError):
            pm.probs[0, 0, 0] = 0.5


class TestModelAverage:
    def test_uniform_average_two_learners(self):
        pm = PredictionMatrix(np.array([[[0.6, 0.4]], [[0.3, 0.7]]]))
        outcome = model_average(pm)
        # mean probabilities are [0.45, 0.55]
        assert outcome.decisions.tolist() == [1]

    def test_tie_breaks_toward_lowest_class(self):
        pm = PredictionMatrix(np.array([[[0.6, 0.4]], [[0.4, 0.6]]]))
        assert model_average(pm).decisions.tolist() == [0]

    def test_average_matches_manual_loop(self, rng):
        pm = random_pm(rng, 5, 10, 3)
        outcome = model_average(pm)
        for i in range(10):
            fused = np.zeros(3)
            for j in range(5):
                fused += pm.probs[j, i] / 5
            assert outcome.decisions[i] == np.argmax(fused)

    def test_single_learner_decides_its_vote(self, rng):
        # A lone learner's mean is its own probabilities.
        pm = random_pm(rng, 1, 50, 4)
        assert model_average(pm).decisions.tolist() == pm.votes()[0].tolist()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=9),
           c=st.integers(min_value=2, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_decision_has_the_highest_mean_probability(self, seed, n, c):
        # Up to rounding: a near-tie may go to either class.
        pm = random_pm(np.random.default_rng(seed), n, 20, c)
        mean = pm.probs.mean(axis=0)
        picked = mean[np.arange(20), model_average(pm).decisions]
        assert np.all(picked >= mean.max(axis=1) - 1e-12)


class TestVoting:
    def test_plurality_picks_most_frequent(self):
        # vote counts per class: (3, 2, 2) over 7 learners
        votes = np.array([[0], [0], [0], [1], [1], [2], [2]])
        pm = one_hot_pm(votes, 3)
        assert plurality_vote(pm).decisions.tolist() == [0]

    def test_majority_accepts_four_of_seven(self):
        votes = np.array([[0], [0], [0], [0], [1], [1], [1]])
        pm = one_hot_pm(votes, 2)
        assert majority_vote(pm).decisions.tolist() == [0]

    def test_majority_rejects_three_three_one(self):
        votes = np.array([[0], [0], [0], [1], [1], [1], [2]])
        pm = one_hot_pm(votes, 3)
        outcome = majority_vote(pm)
        assert outcome.decisions.tolist() == [REJECTED]
        assert outcome.rejected_count == 1

    def test_plurality_never_rejects(self, rng):
        pm = random_pm(rng, 6, 40, 3)
        assert plurality_vote(pm).rejected_count == 0

    def test_single_learner_majority_equals_plurality(self, rng):
        pm = random_pm(rng, 1, 20, 3)
        np.testing.assert_array_equal(
            majority_vote(pm).decisions, plurality_vote(pm).decisions
        )

    def test_tally_counts_match_counter(self, rng):
        pm = random_pm(rng, 5, 12, 3)
        votes = pm.votes()
        counts = tally(pm)
        for i in range(12):
            ref = Counter(votes[:, i].tolist())
            for c in range(3):
                assert counts[i, c] == ref.get(c, 0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=8),
        c=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_voting_matches_counter_oracle(self, seed, n, c):
        votes = np.random.default_rng(seed).integers(0, c, size=(n, 15))
        pm = one_hot_pm(votes, c)
        expected = reference_plurality(votes, c)
        np.testing.assert_array_equal(plurality_vote(pm).decisions, expected)
        counts = tally(pm).max(axis=1)
        expected_majority = np.where(counts * 2 > n, expected, REJECTED)
        np.testing.assert_array_equal(majority_vote(pm).decisions, expected_majority)


class TestLevel1Features:
    def test_two_learner_concatenation(self):
        pm = PredictionMatrix(np.array([[[0.6, 0.4]], [[0.3, 0.7]]]))
        feats = _level1_features(pm)
        np.testing.assert_allclose(feats, [[0.6, 0.4, 0.3, 0.7]])

    def test_learner_major_column_layout(self, rng):
        pm = random_pm(rng, 4, 9, 3)
        feats = _level1_features(pm)
        assert feats.shape == (9, 12)
        for j in range(4):
            for c in range(3):
                np.testing.assert_array_equal(feats[:, j * 3 + c], pm.probs[j, :, c])

    def test_label_mode_uses_hard_votes(self, rng):
        pm = random_pm(rng, 4, 9, 3)
        feats = _level1_features(pm, mode="label")
        assert feats.shape == (9, 4)
        np.testing.assert_array_equal(feats, pm.votes().T.astype(float))

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ConfigError, match="mode"):
            _level1_features(random_pm(rng, 2, 3, 2), mode="logits")

    @pytest.mark.parametrize("mode", ["proba", "label"])
    def test_selected_rows_are_one_read_only_column_major_block(self, rng, mode):
        pm = random_pm(rng, 4, 30, 3)
        rows = np.array([3, 0, 7, 7, 29])
        feats = _level1_features(pm, mode, rows)
        np.testing.assert_array_equal(feats, _level1_features(pm, mode)[rows])
        assert not feats.flags.writeable
        assert feats.T.flags.c_contiguous
        # so boosting.fit's column copy is the block itself
        assert np.shares_memory(np.ascontiguousarray(feats.T), feats)


class TestLevel1Block:
    @pytest.mark.parametrize("mode", ["proba", "label"])
    def test_fit_on_the_block_matches_fit_on_a_row_major_copy(self, rng, mode):
        pm = random_pm(rng, 5, 120, 3)
        labels = rng.integers(0, 3, size=120)
        rows = np.flatnonzero(rng.random(120) < 0.6)
        feats = _level1_features(pm, mode, rows)
        before = feats.copy()
        got = boosting.fit(feats, labels[rows], FAST_BOOST, n_classes=3)
        want = boosting.fit(np.ascontiguousarray(feats), labels[rows], FAST_BOOST,
                            n_classes=3)
        assert got.loss_trace == want.loss_trace
        for a, b in zip((t for r in got.trees for t in r), (t for r in want.trees for t in r),
                        strict=True):
            np.testing.assert_array_equal(a, b)
        assert not feats.flags.writeable
        assert feats.tobytes() == before.tobytes()

    def test_meta_fit_peak_memory_drops_by_the_level1_bytes(self, rng):
        # the blobs benchmark's meta fit: 7 learners, 2,400 training rows, 3 classes
        pm = random_pm(rng, 7, 2400, 3)
        labels = rng.integers(0, 3, size=2400)
        config = BoostConfig(rounds=1)
        difficult = tally(pm).max(axis=1) < 6
        level1_bytes = int(difficult.sum()) * 7 * 3 * 8

        def row_major_fit():
            # the difficult rows copied out row-major; boosting.fit copies them
            # once more into columns
            X = pm.probs.transpose(1, 0, 2).reshape(2400, -1)[difficult]
            return boosting.fit(X, labels[difficult], config, n_classes=3)

        saved = traced_peak(row_major_fit) - traced_peak(fit_filtered, pm, labels, config, 6)
        assert saved >= 0.9 * level1_bytes, f"saved {saved / level1_bytes:.2f}x level-1 bytes"


class TestMetaStacking:
    def test_consistent_teachers_are_learned_exactly(self, rng):
        labels = rng.integers(0, 3, size=60)
        pm = one_hot_pm(np.tile(labels, (4, 1)), 3)
        _, outcome = plain_stacking(pm, labels, pm)
        np.testing.assert_array_equal(outcome.decisions, labels)
        assert outcome.routes.dtype == np.int8
        np.testing.assert_array_equal(outcome.routes, META)

    def test_meta_exploits_one_reliable_learner(self, rng):
        # learner 0 is always right, the other six vote randomly; plurality
        # drowns the reliable voice but stacking can learn to trust it
        def build(seed):
            r = np.random.default_rng(seed)
            labels = r.integers(0, 2, size=300)
            votes = r.integers(0, 2, size=(7, 300))
            votes[0] = labels
            return one_hot_pm(votes, 2), labels

        pm_train, y_train = build(11)
        pm_test, y_test = build(12)
        meta_acc = np.mean(plain_stacking(pm_train, y_train, pm_test)[1].decisions == y_test)
        plain_acc = np.mean(plurality_vote(pm_test).decisions == y_test)
        assert meta_acc > plain_acc
        assert meta_acc > 0.95

    def test_label_shape_mismatch_rejected(self, rng):
        pm = random_pm(rng, 3, 10, 2)
        with pytest.raises(ContractError, match="labels"):
            plain_stacking(pm, np.zeros(9, dtype=int), pm)

    @pytest.mark.parametrize("mode", ["proba", "label"])
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_threshold_above_n_is_plain_stacking(self, rng, n, mode):
        pm_train = random_pm(rng, n, 80, 3)
        labels = rng.integers(0, 3, size=80)
        pm_test = random_pm(rng, n, 40, 3)
        fitted, outcome = plain_stacking(pm_train, labels, pm_test, mode)
        # Reference: the meta-learner fitted on every level-1 row.
        reference = boosting.fit(_level1_features(pm_train, mode), labels,
                                 FAST_BOOST, n_classes=3)
        assert fitted.n_difficult == 80
        assert fitted.warnings == ()
        got = [t for r in fitted.meta_model.trees for t in r]
        want = [t for r in reference.trees for t in r]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            outcome.decisions,
            boosting.predict_label(reference, _level1_features(pm_test, mode)))
        np.testing.assert_array_equal(outcome.routes, META)


class TestFilteredFusion:
    def test_threshold_out_of_range_rejected(self, rng):
        pm = random_pm(rng, 5, 10, 2)
        labels = rng.integers(0, 2, size=10)
        with pytest.raises(ConfigError, match="threshold"):
            fit_filtered(pm, labels, FAST_BOOST, threshold=0)

    def test_confident_samples_take_voted_label(self, rng):
        # train has disagreement so a meta-learner exists; the unanimous
        # test column must still bypass it
        r = np.random.default_rng(5)
        votes_train = r.integers(0, 2, size=(7, 80))
        labels_train = r.integers(0, 2, size=80)
        pm_train = one_hot_pm(votes_train, 2)
        votes_test = np.ones((7, 3), dtype=int)
        votes_test[:, 1] = 0
        votes_test[:4, 2] = 0  # 4-3 split stays below threshold 6
        pm_test = one_hot_pm(votes_test, 2)
        outcome = apply_filtered(fit_filtered(pm_train, labels_train, FAST_BOOST, 6), pm_test)
        assert outcome.routes.tolist() == [CONFIDENT, CONFIDENT, META]
        assert outcome.decisions[0] == 1
        assert outcome.decisions[1] == 0

    def test_threshold_one_equals_plurality(self, rng):
        pm_train = random_pm(rng, 7, 40, 3)
        labels = rng.integers(0, 3, size=40)
        pm_test = random_pm(rng, 7, 25, 3)
        outcome = apply_filtered(
            fit_filtered(pm_train, labels, FAST_BOOST, threshold=1), pm_test)
        np.testing.assert_array_equal(
            outcome.decisions, plurality_vote(pm_test).decisions
        )
        np.testing.assert_array_equal(outcome.routes, CONFIDENT)

    def test_unknown_mode_rejected_when_no_row_is_difficult(self, rng):
        # The fallback path checks the level-1 mode too.
        labels = rng.integers(0, 2, size=20)
        pm_train = one_hot_pm(np.tile(labels, (7, 1)), 2)
        with pytest.raises(ConfigError, match="mode"):
            fit_filtered(pm_train, labels, FAST_BOOST, 6, mode="logits")

    def test_unanimous_training_falls_back_to_plurality(self, rng):
        labels = rng.integers(0, 2, size=20)
        pm_train = one_hot_pm(np.tile(labels, (7, 1)), 2)
        fitted = fit_filtered(pm_train, labels, FAST_BOOST, 6)
        assert fitted.meta_model is None
        assert fitted.n_difficult == 0
        assert any("no difficult training instances" in w for w in fitted.warnings)
        votes_test = np.array([[0, 0], [0, 0], [0, 0], [0, 1], [1, 1], [1, 1], [1, 1]])
        pm_test = one_hot_pm(votes_test, 2)
        outcome = apply_filtered(fitted, pm_test)
        # column 0 splits 4-3, column 1 splits 3-4: both below threshold 6
        assert outcome.routes.tolist() == [FALLBACK, FALLBACK]
        assert outcome.route_counts() == {ROUTE_CONFIDENT: 0, ROUTE_META: 0,
                                           ROUTE_FALLBACK: 2}
        np.testing.assert_array_equal(
            outcome.decisions, plurality_vote(pm_test).decisions
        )
        assert outcome.warnings == fitted.warnings

    def test_single_class_difficult_set_falls_back(self):
        # learners disagree only on samples whose true label is 0
        votes = np.array([
            [0, 1, 0, 1],
            [1, 0, 1, 0],
            [0, 0, 0, 0],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [0, 0, 1, 0],
            [1, 1, 0, 0],
        ])
        labels = np.zeros(4, dtype=int)
        mixed = one_hot_pm(votes, 2)
        fitted = fit_filtered(mixed, labels, FAST_BOOST, 6)
        assert fitted.meta_model is None
        assert fitted.n_difficult == 4
        assert any("share one class" in w for w in fitted.warnings)

    def test_routes_cover_every_sample(self, rng):
        pm_train = random_pm(rng, 7, 60, 3)
        labels = rng.integers(0, 3, size=60)
        pm_test = random_pm(rng, 7, 30, 3)
        outcome = apply_filtered(fit_filtered(pm_train, labels, FAST_BOOST, 6), pm_test)
        assert len(outcome.routes) == 30
        counts = outcome.route_counts()
        assert list(counts) == list(ROUTES)
        assert counts[ROUTE_CONFIDENT] == int(np.sum(tally(pm_test).max(axis=1) >= 6))
        assert sum(counts.values()) == 30
        assert outcome.rejected_count == 0

    def test_difficult_count_matches_threshold_rule(self, rng):
        pm_train = random_pm(rng, 7, 50, 3)
        labels = rng.integers(0, 3, size=50)
        for thr in (2, 4, 6, 7):
            fitted = fit_filtered(pm_train, labels, FAST_BOOST, threshold=thr)
            expected = int(np.sum(tally(pm_train).max(axis=1) < thr))
            assert fitted.n_difficult == expected


class TestOutcomeAccuracy:
    def test_route_tag_length_enforced(self):
        # Also rejected: codes outside ROUTES, and codes that are not integers.
        for bad in ([CONFIDENT], [0, len(ROUTES)], [-1, 0], [0.0, 1.0],
                    [ROUTE_META, ROUTE_META]):
            with pytest.raises(ContractError, match="route codes"):
                FusionOutcome(decisions=np.array([0, 1]), routes=np.array(bad))

    def test_route_codes_are_a_frozen_int8_copy(self):
        codes = np.array([META, FALLBACK])
        outcome = FusionOutcome(decisions=np.array([0, 1]), routes=codes)
        assert outcome.routes.dtype == np.int8
        assert not outcome.routes.flags.writeable
        assert codes.flags.writeable
        assert outcome.route_counts() == {ROUTE_CONFIDENT: 0, ROUTE_META: 1,
                                           ROUTE_FALLBACK: 1}
        assert FusionOutcome(decisions=np.array([0])).route_counts() == dict.fromkeys(ROUTES, 0)
