import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votestack import (
    ConfigError,
    ContractError,
    DataError,
    Dataset,
    VoteStackError,
    apply_normalizer,
    fit_normalizer,
    gaussian_blobs,
    load_csv,
    save_csv,
    split,
)

from conftest import (
    FILE_EDITS,
    FUZZ_SETTINGS,
    LOAD_WALL_S,
    apply_edits,
    make_dataset,
    traced_peak,
    wall_bound,
)


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadCsv:
    def test_labels_mapped_in_first_appearance_order(self, tmp_path):
        path = write_lines(
            tmp_path, "mail.csv", ["1.0,2.0,spam", "0.5,1.5,ham", "3.0,4.0,spam"]
        )
        ds = load_csv(path, -1, ",", None)
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_names == ("spam", "ham")
        assert ds.n_classes == 2

    def test_ragged_row_error_names_line_number(self, tmp_path):
        path = write_lines(tmp_path, "bad.csv", ["1.0,2.0,a", "1.0,b", "2.0,3.0,a"])
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, -1, ",", None)

    def test_non_numeric_feature_error_names_line_and_column(self, tmp_path):
        path = write_lines(
            tmp_path, "bad.csv", ["x1,x2,y", "1.0,2.0,a", "1.0,oops,b"]
        )
        with pytest.raises(DataError, match=r"line 3.*'x2'"):
            load_csv(path, "y", ",", None)

    def test_header_autodetected(self, tmp_path):
        path = write_lines(tmp_path, "h.csv", ["alpha,beta,label", "1,2,a", "3,4,b"])
        ds = load_csv(path, -1, ",", None)
        assert ds.feature_names == ("alpha", "beta")
        assert ds.n_samples == 2

    def test_headerless_numeric_file(self, tmp_path):
        path = write_lines(tmp_path, "n.csv", ["1,2,0", "3,4,1"])
        ds = load_csv(path, -1, ",", None)
        assert ds.n_samples == 2
        assert ds.feature_names == ("f0", "f1")
        assert ds.class_names == ("0", "1")

    def test_label_column_by_name(self, tmp_path):
        path = write_lines(tmp_path, "named.csv", ["y,a,b", "yes,1,2", "no,3,4"])
        ds = load_csv(path, "y", ",", None)
        assert ds.class_names == ("yes", "no")
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_named_label_without_header_is_config_error(self, tmp_path):
        path = write_lines(tmp_path, "n.csv", ["1,2,0", "3,4,1"])
        with pytest.raises(ConfigError, match="header"):
            load_csv(path, "y", ",", False)

    @pytest.mark.parametrize("label_column, message", [
        ("nosuch", "'nosuch' not found in header"),
        (3, "index 3 out of range for 3 columns"),
        (-4, "index -4 out of range for 3 columns"),
    ])
    def test_unresolvable_label_column_is_data_error(self, tmp_path, label_column, message):
        path = write_lines(tmp_path, "h.csv", ["a,b,y", "1,2,0", "3,4,1"])
        with pytest.raises(DataError, match=message):
            load_csv(path, label_column, ",", None)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "absent.csv", -1, ",", None)

    def test_single_class_file_rejected(self, tmp_path):
        path = write_lines(tmp_path, "one.csv", ["1,2,a", "3,4,a"])
        with pytest.raises(DataError, match="two distinct class"):
            load_csv(path, -1, ",", None)

    def test_explicit_class_names_fix_encoding(self, tmp_path):
        path = write_lines(tmp_path, "t.csv", ["1,2,ham", "3,4,spam"])
        ds = load_csv(path, -1, ",", None, class_names=("spam", "ham"))
        assert ds.labels.tolist() == [1, 0]

    def test_unexpected_class_under_explicit_names(self, tmp_path):
        path = write_lines(tmp_path, "t.csv", ["1,2,ham", "3,4,eggs"])
        with pytest.raises(DataError, match="'eggs'"):
            load_csv(path, -1, ",", None, class_names=("spam", "ham"))

    def test_non_finite_feature_rejected(self, tmp_path):
        path = write_lines(tmp_path, "inf.csv", ["1,inf,a", "3,4,b"])
        with pytest.raises(DataError, match="line 1"):
            load_csv(path, -1, ",", None)


    def test_load_peak_memory_is_near_two_feature_copies(self, tmp_path):
        # records are parsed as they are read, into one flat float buffer
        # that the Dataset then copies; keeping every row's cells as strings
        # first peaks at about 13x the feature bytes
        data = gaussian_blobs(2000, 20, 3, seed=1)
        path = save_csv(data, tmp_path / "blobs.csv")
        peak = traced_peak(load_csv, path, -1, ",", None)
        assert peak < 3 * data.features.nbytes, f"peak {peak / data.features.nbytes:.1f}x"

    @FUZZ_SETTINGS
    @given(edits=FILE_EDITS)
    def test_mutated_file_loads_or_raises_votestack_error(self, tmp_path_factory, edits):
        text = "x1,x2,label\n1.0,2.0,spam\n0.5,-1.5e3,ham\n3.0,4.0,spam\n"
        path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        path.write_bytes(apply_edits(text.encode(), edits))
        with wall_bound(LOAD_WALL_S):
            try:
                load_csv(path, -1, ",", None)
            except VoteStackError:
                pass


class TestSaveCsv:
    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        feats = rng.standard_normal((17, 4)) * np.array([1e-8, 1.0, 1e6, np.pi])
        labels = rng.integers(0, 3, size=17)
        labels[:3] = [0, 1, 2]
        ds = make_dataset(feats, labels, n_classes=3)
        path = save_csv(ds, tmp_path / "rt.csv")
        back = load_csv(path, -1, ",", None, class_names=ds.class_names)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names


class TestSplit:
    def test_sizes_100_at_80_percent(self):
        ds = make_dataset(np.arange(200.0).reshape(100, 2), [0, 1] * 50)
        train, test = split(ds, 0.8, True, 3)
        assert train.n_samples == 80
        assert test.n_samples == 20

    def test_fraction_one_rejected(self):
        ds = make_dataset(np.arange(20.0).reshape(10, 2), [0, 1] * 5)
        with pytest.raises(ConfigError, match="train_fraction"):
            split(ds, 1.0, True, 0)

    def test_fraction_zero_rejected(self):
        ds = make_dataset(np.arange(20.0).reshape(10, 2), [0, 1] * 5)
        with pytest.raises(ConfigError):
            split(ds, 0.0, False, 0)

    def test_stratified_counts_balanced_two_class(self):
        labels = np.array([0] * 10 + [1] * 10)
        ds = make_dataset(np.arange(40.0).reshape(20, 2), labels)
        train, test = split(ds, 0.8, True, 9)
        assert np.count_nonzero(train.labels == 0) == 8
        assert np.count_nonzero(train.labels == 1) == 8
        assert np.count_nonzero(test.labels == 0) == 2
        assert np.count_nonzero(test.labels == 1) == 2

    def test_partition_is_exact_and_disjoint(self, rng):
        feats = rng.standard_normal((57, 3))
        labels = rng.integers(0, 3, size=57)
        labels[:6] = [0, 0, 1, 1, 2, 2]
        ds = make_dataset(feats, labels, n_classes=3)
        train, test = split(ds, 0.7, True, 4)
        assert train.n_samples + test.n_samples == ds.n_samples
        combined = np.concatenate([train.features, test.features])
        assert {tuple(r) for r in combined} == {tuple(r) for r in ds.features}

    def test_deterministic_for_fixed_seed(self, rng):
        ds = make_dataset(rng.standard_normal((30, 2)), [0, 1] * 15)
        a = split(ds, 0.8, True, 11)
        b = split(ds, 0.8, True, 11)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_different_seeds_differ(self, rng):
        ds = make_dataset(rng.standard_normal((40, 2)), [0, 1] * 20)
        a, _ = split(ds, 0.8, True, 1)
        b, _ = split(ds, 0.8, True, 2)
        assert not np.array_equal(a.features, b.features)

    def test_both_sides_keep_every_class(self):
        # 3 samples in the smallest class at 90% would round to 3 without clamping
        labels = np.array([0] * 30 + [1] * 3)
        ds = make_dataset(np.arange(66.0).reshape(33, 2), labels)
        train, test = split(ds, 0.9, True, 0)
        for side in (train, test):
            assert set(side.labels.tolist()) == {0, 1}

    def test_stratified_single_member_class_rejected(self):
        labels = np.array([0] * 9 + [1])
        ds = make_dataset(np.arange(20.0).reshape(10, 2), labels)
        with pytest.raises(DataError, match="at least 2"):
            split(ds, 0.8, True, 0)

    def test_unstratified_indices_pinned(self):
        # Feature value = row index.
        ds = make_dataset(np.arange(13.0).reshape(13, 1), [0, 1, 2] * 4 + [0])
        train, test = split(ds, 0.7, False, 5)
        assert train.features[:, 0].tolist() == [1, 2, 3, 4, 6, 7, 9, 10, 12]
        assert test.features[:, 0].tolist() == [0, 5, 8, 11]

    def test_unstratified_ignores_class_sizes(self):
        labels = np.array([0] * 9 + [1])
        ds = make_dataset(np.arange(20.0).reshape(10, 2), labels)
        train, test = split(ds, 0.8, False, 0)
        assert (train.n_samples, test.n_samples) == (8, 2)

    @given(
        n0=st.integers(min_value=4, max_value=40),
        n1=st.integers(min_value=4, max_value=40),
        frac=st.floats(min_value=0.1, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_stratified_class_counts_near_fraction(self, n0, n1, frac, seed):
        labels = np.array([0] * n0 + [1] * n1)
        feats = np.arange(2.0 * (n0 + n1)).reshape(-1, 2)
        train, _ = split(make_dataset(feats, labels), frac, True, seed)
        for c, size in ((0, n0), (1, n1)):
            got = np.count_nonzero(train.labels == c)
            want = min(max(int(round(frac * size)), 1), size - 1)
            assert got == want


class TestNormalizer:
    def test_z_scores_of_2_4_6(self):
        ds = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 0])
        state = fit_normalizer(ds)
        out = apply_normalizer(state, ds)
        expected = np.array([[-1.224744871391589], [0.0], [1.224744871391589]])
        np.testing.assert_allclose(out.features, expected, atol=1e-12)

    def test_constant_feature_maps_to_zero(self):
        ds = make_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
        out = apply_normalizer(fit_normalizer(ds), ds)
        np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0, 0.0])

    def test_train_statistics_reused_on_test(self):
        train = make_dataset([[0.0], [10.0]], [0, 1])
        test = make_dataset([[5.0], [20.0]], [0, 1])
        state = fit_normalizer(train)
        out = apply_normalizer(state, test)
        np.testing.assert_allclose(out.features[:, 0], [0.0, 3.0])

    def test_normalized_train_has_zero_mean_unit_std(self, rng):
        ds = make_dataset(rng.standard_normal((50, 4)) * 7 + 3, rng.integers(0, 2, 50))
        out = apply_normalizer(fit_normalizer(ds), ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)

    def test_feature_count_mismatch_rejected(self):
        state = fit_normalizer(make_dataset([[1.0], [2.0]], [0, 1]))
        other = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        with pytest.raises(ContractError, match="features"):
            apply_normalizer(state, other)


class TestDatasetValidation:
    def test_label_out_of_schema_range(self):
        with pytest.raises(DataError, match="label"):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), ("f0",), ("a", "b"))

    def test_non_finite_features_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            make_dataset([[np.nan], [1.0]], [0, 1])

    def test_arrays_are_frozen_copies(self):
        feats = np.array([[1.0], [2.0]])
        ds = make_dataset(feats, [0, 1])
        feats[0, 0] = 99.0
        assert ds.features[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
