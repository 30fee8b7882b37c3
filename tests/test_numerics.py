import numpy as np
import pytest

from votestack.numerics import all_finite
from conftest import traced_peak


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
