"""GLCM texture features and spectral indices."""

import numpy as np
import pytest

from repro.core.preprocessing.raster import indices
from repro.core.preprocessing.raster.glcm import (
    FEATURE_NAMES,
    glcm_feature_vector,
    glcm_features,
    glcm_matrix,
    quantize,
)


class TestQuantize:
    def test_range(self, rng):
        band = rng.random((8, 8))
        q = quantize(band, 16)
        assert q.min() >= 0 and q.max() <= 15
        assert q.dtype == np.int64

    def test_constant_band(self):
        q = quantize(np.full((4, 4), 3.0), 16)
        assert (q == 0).all()

    def test_extremes_hit_endpoints(self):
        band = np.array([[0.0, 1.0]])
        q = quantize(band, 8)
        assert q[0, 0] == 0 and q[0, 1] == 7


class TestGLCMMatrix:
    def test_normalized(self, rng):
        m = glcm_matrix(rng.random((10, 10)), levels=8)
        assert m.sum() == pytest.approx(1.0)
        assert (m >= 0).all()

    def test_symmetric(self, rng):
        m = glcm_matrix(rng.random((10, 10)), levels=8)
        np.testing.assert_allclose(m, m.T)

    def test_constant_image_diagonal(self):
        m = glcm_matrix(np.full((6, 6), 0.5), levels=4)
        assert m[0, 0] == pytest.approx(1.0)

    def test_checkerboard_offdiagonal(self):
        board = np.indices((8, 8)).sum(axis=0) % 2
        m = glcm_matrix(board.astype(float), levels=2, offsets=((0, 1),))
        # Horizontal neighbours always differ on a checkerboard.
        assert m[0, 0] == 0 and m[1, 1] == 0
        assert m[0, 1] == pytest.approx(0.5)


class TestGLCMFeatures:
    def test_all_names_present(self, rng):
        feats = glcm_features(rng.random((8, 8)))
        assert set(feats) == set(FEATURE_NAMES)
        assert all(np.isfinite(v) for v in feats.values())

    def test_energy_is_sqrt_asm(self, rng):
        feats = glcm_features(rng.random((8, 8)))
        assert feats["energy"] == pytest.approx(np.sqrt(feats["asm"]))

    def test_constant_image(self):
        feats = glcm_features(np.full((8, 8), 0.7))
        assert feats["contrast"] == 0
        assert feats["dissimilarity"] == 0
        assert feats["homogeneity"] == pytest.approx(1.0)
        assert feats["asm"] == pytest.approx(1.0)
        assert feats["correlation"] == 0.0  # zero variance convention

    def test_checkerboard_max_contrast(self):
        board = (np.indices((8, 8)).sum(axis=0) % 2).astype(float)
        feats = glcm_features(board, levels=2, offsets=((0, 1),))
        assert feats["contrast"] == pytest.approx(1.0)
        assert feats["correlation"] == pytest.approx(-1.0)

    def test_smooth_has_lower_contrast_than_noise(self, rng):
        from scipy import ndimage

        noise = rng.random((16, 16))
        smooth = ndimage.gaussian_filter(noise, 2.0)
        assert (
            glcm_features(smooth)["contrast"]
            < glcm_features(noise)["contrast"]
        )

    def test_vector_order(self, rng):
        band = rng.random((8, 8))
        vec = glcm_feature_vector(band)
        feats = glcm_features(band)
        np.testing.assert_allclose(
            vec, [feats[name] for name in FEATURE_NAMES], rtol=1e-6
        )
        assert vec.dtype == np.float32


class TestSpectralIndices:
    def test_normalized_difference_range(self, rng):
        a = rng.random((5, 5))
        b = rng.random((5, 5))
        ndi = indices.normalized_difference(a, b)
        assert (ndi >= -1.0001).all() and (ndi <= 1.0001).all()

    def test_zero_denominator_finite(self):
        zero = np.zeros((2, 2))
        assert np.isfinite(indices.normalized_difference(zero, zero)).all()
