import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votestack import ConfigError, ResamplePlan, build_plan, materialize, out_of_bag


def segment_sizes(plan):
    return [hi - lo for lo, hi in plan.segment_bounds]


def kept_and_replenished(plan, learner_id):
    """Split materialize's indices into the kept rows and the bootstrap draws."""
    idx = materialize(plan, learner_id)
    n_kept = plan.train_size - segment_sizes(plan)[learner_id]
    return idx[:n_kept], idx[n_kept:]


class TestSegmentLayout:
    def test_even_division_14_over_7(self):
        plan = build_plan(14, 7, seed=0)
        assert segment_sizes(plan) == [2] * 7

    def test_remainder_spread_from_front_15_over_7(self):
        plan = build_plan(15, 7, seed=0)
        assert segment_sizes(plan) == [3, 2, 2, 2, 2, 2, 2]

    def test_7352_over_7(self):
        # 7352 = 7 * 1050 + 2, so the first two segments absorb the remainder
        plan = build_plan(7352, 7, seed=0)
        assert segment_sizes(plan) == [1051, 1051, 1050, 1050, 1050, 1050, 1050]

    def test_segments_partition_all_indices(self):
        plan = build_plan(29, 4, seed=5)
        pieces = [plan.permutation[lo:hi] for lo, hi in plan.segment_bounds]
        assert sorted(np.concatenate(pieces).tolist()) == list(range(29))

    @given(
        size=st.integers(min_value=2, max_value=300),
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_sizes_sum_and_balance(self, size, n, seed):
        if size < 2 * n:
            with pytest.raises(ConfigError):
                build_plan(size, n, seed)
            return
        sizes = segment_sizes(build_plan(size, n, seed))
        assert sum(sizes) == size
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError, match="too small"):
            build_plan(13, 7, seed=0)

    def test_zero_learners_rejected(self):
        with pytest.raises(ConfigError, match="at least 1"):
            build_plan(10, 0, seed=0)

    def test_direct_construction_checked_too(self):
        with pytest.raises(ConfigError, match="too small"):
            ResamplePlan(train_size=13, n_learners=7, seed=0)
        with pytest.raises(ConfigError, match="at least 1"):
            ResamplePlan(train_size=10, n_learners=0, seed=0)
        with pytest.raises(ConfigError, match="train_size must be an integer"):
            ResamplePlan(train_size=6.5, n_learners=2, seed=0)

    def test_a_plan_is_its_three_integers(self):
        # The permutation is derived, never given, so a manifest of the three
        # integers describes the plan exactly and materialize sees each row once.
        plan = ResamplePlan(train_size=6, n_learners=2, seed=0)
        assert plan == build_plan(6, 2, 0)
        assert sorted(plan.permutation.tolist()) == list(range(6))
        assert not plan.permutation.flags.writeable
        with pytest.raises(TypeError):
            ResamplePlan(n_learners=2, seed=0, permutation=np.zeros(6, dtype=int))


class TestMaterialize:
    def test_size_preserved_and_deleted_segment_absent(self):
        plan = build_plan(14, 7, seed=3)
        for j in range(7):
            idx = materialize(plan, j)
            kept, replenished = kept_and_replenished(plan, j)
            deleted = set(out_of_bag(plan, j).tolist())
            assert idx.size == 14
            assert kept.size == 12
            assert replenished.size == 2
            assert deleted.isdisjoint(idx.tolist())
            assert set(replenished.tolist()) <= set(kept.tolist())

    def test_kept_plus_deleted_partition(self):
        plan = build_plan(31, 5, seed=8)
        for j in range(5):
            kept, _ = kept_and_replenished(plan, j)
            deleted = out_of_bag(plan, j)
            union = np.sort(np.concatenate([kept, deleted]))
            np.testing.assert_array_equal(union, np.arange(31))

    def test_deterministic_and_order_independent(self):
        plan = build_plan(20, 4, seed=12)
        forward = [materialize(plan, j) for j in range(4)]
        backward = [materialize(plan, j) for j in reversed(range(4))]
        for j in range(4):
            np.testing.assert_array_equal(forward[j], backward[3 - j])
        again = build_plan(20, 4, seed=12)
        for j in range(4):
            np.testing.assert_array_equal(forward[j], materialize(again, j))

    def test_different_learners_get_different_sets(self):
        plan = build_plan(40, 4, seed=1)
        a = materialize(plan, 0)
        b = materialize(plan, 1)
        assert not np.array_equal(np.sort(a), np.sort(b))

    def test_rows_pinned(self):
        # The bytes of every learner's rows at the default 7-learner plan of a
        # HAR-sized train set. No BLAS call enters them, so they hold on every
        # kernel, unlike the model-file goldens built on them.
        digest = hashlib.sha256()
        for seed in (0, 3):
            plan = build_plan(7352, 7, seed)
            for j in range(7):
                digest.update(materialize(plan, j).astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "6adcdf63bc1a8bdcd410406aeb20176e39c496916664ff28832b197cc78cb8e2")

    def test_learner_id_out_of_range(self):
        plan = build_plan(10, 2, seed=0)
        with pytest.raises(Exception, match="out of range"):
            materialize(plan, 2)

    def test_replenishment_uniform_over_kept_positions(self):
        # size 12, 3 learners: segment 0 holds 4 indices, 8 are kept.
        # Across many seeds, each kept slot should receive about 1/8 of all
        # bootstrap draws; bound the deviation at three standard errors.
        n_seeds = 10000
        counts = np.zeros(8, dtype=np.int64)
        for seed in range(n_seeds):
            plan = build_plan(12, 3, seed=seed)
            kept, replenished = kept_and_replenished(plan, 0)
            positions = np.searchsorted(kept, replenished)
            counts += np.bincount(positions, minlength=8)
        total = counts.sum()
        assert total == 4 * n_seeds
        p = 1.0 / 8.0
        se = np.sqrt(p * (1 - p) / total)
        np.testing.assert_allclose(counts / total, p, atol=3 * se)


class TestOutOfBag:
    def test_oob_segments_partition_training_indices(self):
        plan = build_plan(23, 3, seed=7)
        segments = [out_of_bag(plan, j) for j in range(3)]
        assert sorted(np.concatenate(segments).tolist()) == list(range(23))
        for a in range(3):
            for b in range(a + 1, 3):
                assert set(segments[a].tolist()).isdisjoint(segments[b].tolist())


class TestManifest:
    def test_round_trip(self):
        plan = build_plan(57, 6, seed=99)
        manifest = plan.to_manifest()
        restored = build_plan(manifest["train_size"], manifest["n_learners"],
                              manifest["seed"])
        assert manifest["segment_bounds"] == [list(b) for b in plan.segment_bounds]
        np.testing.assert_array_equal(restored.permutation, plan.permutation)
        assert restored.segment_bounds == plan.segment_bounds
        assert restored.seed == plan.seed

    def test_manifest_is_json_friendly(self):
        import json

        manifest = build_plan(14, 7, seed=2).to_manifest()
        assert json.loads(json.dumps(manifest)) == manifest
