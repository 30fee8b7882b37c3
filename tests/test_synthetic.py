import numpy as np
import pytest

from votestack import ConfigError, gaussian_blobs


class TestGaussianBlobs:
    def test_shapes_and_schema(self):
        ds = gaussian_blobs(30, 5, 3, seed=0)
        assert ds.features.shape == (30, 5)
        assert ds.labels.shape == (30,)
        assert ds.n_classes == 3
        assert ds.feature_names == ("f0", "f1", "f2", "f3", "f4")
        assert ds.class_names == ("c0", "c1", "c2")

    def test_class_sizes_balanced_within_one(self):
        ds = gaussian_blobs(100, 2, 3, seed=1)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.sum() == 100
        assert counts.max() - counts.min() <= 1

    def test_deterministic_for_fixed_arguments(self):
        a = gaussian_blobs(50, 3, 2, seed=9)
        b = gaussian_blobs(50, 3, 2, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = gaussian_blobs(50, 3, 2, seed=1)
        b = gaussian_blobs(50, 3, 2, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_zero_anisotropy_gives_shared_noise_scale(self):
        # with anisotropy 0 every class draws from N(center, noise^2 I), so
        # per-class per-feature standard deviations all match the noise level
        ds = gaussian_blobs(6000, 2, 2, seed=4, center_spread=0.5, noise=2.0,
                            anisotropy=0.0)
        for c in range(2):
            rows = ds.features[ds.labels == c]
            np.testing.assert_allclose(rows.std(axis=0), 2.0, rtol=0.1)

    def test_classes_overlap_at_default_geometry(self):
        # a nearest-center classifier should be far from perfect
        ds = gaussian_blobs(600, 4, 3, seed=7)
        centers = np.stack([
            ds.features[ds.labels == c].mean(axis=0) for c in range(3)
        ])
        d2 = ((ds.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        acc = np.mean(np.argmin(d2, axis=1) == ds.labels)
        assert 0.35 < acc < 0.95

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="at least"):
            gaussian_blobs(3, 2, 2, seed=0)
        with pytest.raises(ConfigError, match="two classes"):
            gaussian_blobs(10, 2, 1, seed=0)
        with pytest.raises(ConfigError, match="feature"):
            gaussian_blobs(10, 0, 2, seed=0)
        with pytest.raises(ConfigError, match="positive"):
            gaussian_blobs(10, 2, 2, seed=0, noise=0.0)
        with pytest.raises(ConfigError, match="anisotropy"):
            gaussian_blobs(10, 2, 2, seed=0, anisotropy=-0.5)
