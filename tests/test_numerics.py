import numpy as np
import pytest

from votestack import BoostConfig, ContractError, DataError, Dataset, MlpConfig, PredictionMatrix
from votestack import boosting, fusion, mlp
from votestack.numerics import all_finite, as_labels
from conftest import traced_peak

X6 = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.5], [3.0, 0.5], [4.0, 2.0], [5.0, 2.5]])
Y6 = np.array([0, 1, 0, 1, 0, 1])
MLP6 = mlp.init(MlpConfig((2, 4, 2), epochs=1, batch_size=2))
GBT6 = boosting.fit(X6, Y6, BoostConfig(rounds=1))
PM6 = PredictionMatrix(np.full((3, 6, 2), 0.5))

# Every model entry point, called as f(features, labels) on 6 samples of 2
# features and 2 classes, with the inputs it reads.
ENTRY_POINTS = {
    "mlp.train": (lambda X, y: mlp.train(mlp.init(MLP6.config), X, y), "features labels"),
    "mlp.gradients": (lambda X, y: mlp.gradients(MLP6, X, y), "features labels"),
    "mlp.predict_proba": (lambda X, y: mlp.predict_proba(MLP6, X), "features"),
    "boosting.fit": (lambda X, y: boosting.fit(X, y, BoostConfig(rounds=1), n_classes=2),
                     "features labels"),
    "boosting.predict_margins": (lambda X, y: boosting.predict_margins(GBT6, X), "features"),
    "fusion.fit_filtered": (lambda X, y: fusion.fit_filtered(PM6, y, BoostConfig(rounds=1), 4),
                            "labels"),
    "tabular.Dataset": (lambda X, y: Dataset(X, y, ("f0", "f1"), ("a", "b")), "features labels"),
}


def _with(X, row, col, value):
    X = X.copy()
    X[row, col] = value
    return X


# (case, features, labels, the input at fault, error)
BAD_INPUTS = [
    ("label column", X6, Y6[:, None], "labels", ContractError),
    ("1-D features", X6[0], Y6[:1], "features", ContractError),
    ("no columns", X6[:, :0], Y6, "features", ContractError),
    ("extra column", np.hstack([X6, X6[:, :1]]), Y6, "features", ContractError),
    ("NaN feature", _with(X6, 2, 1, np.nan), Y6, "features", DataError),
    ("infinite feature", _with(X6, 4, 0, -np.inf), Y6, "features", DataError),
    ("label n_classes", X6, np.array([0, 1, 0, 2, 0, 1]), "labels", ContractError),
    ("label -1", X6, np.array([0, 1, -1, 1, 0, 1]), "labels", ContractError),
    ("label 0.5", X6, np.array([0, 1, 0, 1, 0.5, 1]), "labels", ContractError),
]


class TestAllFinite:
    def test_finite_and_empty_arrays_pass(self):
        assert all_finite(np.zeros((2, 3)), np.array([-1e308, 1e308]))
        assert all_finite(np.empty((0, 4)), np.array([1.0]))
        assert all_finite()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_fails(self, bad):
        a = np.ones((5, 4))
        a[3, 1] = bad
        assert not all_finite(a)
        assert not all_finite(np.ones(3), np.empty(0), a)

    def test_makes_no_boolean_copy(self):
        # np.isfinite(a).all() builds an 800 x 1200 boolean mask, 960 KB
        a = np.ones((800, 1200))
        peak = traced_peak(all_finite, a)
        assert peak < 16_000, f"peak {peak} bytes"


class TestInputContract:
    @pytest.mark.parametrize("place, X, y, error", [
        pytest.param(place, X, y, error, id=f"{place}-{case}")
        for place, (_, reads) in ENTRY_POINTS.items()
        for case, X, y, fault, error in BAD_INPUTS
        # boosting.fit learns its width from the features
        if fault in reads and (place, case) != ("boosting.fit", "extra column")
    ])
    def test_every_entry_point_rejects_bad_input_with_a_typed_error(self, place, X, y, error):
        # A Dataset's labels come from a file, so a label past its class
        # names is a DataError.
        if place == "tabular.Dataset" and y.max() == 2:
            error = DataError
        with pytest.raises(error):
            ENTRY_POINTS[place][0](X, y)

    def test_valid_inputs_pass_every_entry_point(self):
        for call, _ in ENTRY_POINTS.values():
            call(X6, Y6)

    def test_labels_keep_an_int64_array_and_take_whole_floats(self):
        y = np.array([0, 2, 1])
        assert as_labels(y, 3, 3) is y
        np.testing.assert_array_equal(as_labels([0.0, 2.0, 1.0], 3), y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.9, 1e30])
    def test_non_whole_labels_rejected_without_a_cast_warning(self, bad):
        with pytest.raises(ContractError, match="whole-number"):
            as_labels(np.array([0.0, bad]), 2)
