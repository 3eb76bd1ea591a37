"""Raster transforms and composition."""

import numpy as np
import pytest

from repro.core.preprocessing.raster.indices import normalized_difference
from repro.core.transforms import (
    AppendNormalizedDifferenceIndex,
    AppendRatioIndex,
    Compose,
)


@pytest.fixture
def image(rng):
    return rng.random((4, 6, 6)).astype(np.float32)


class TestCompose:
    def test_order(self):
        out = Compose([lambda x: x + 1, lambda x: x * 10])(0)
        assert out == 10

    def test_empty_is_identity(self, image):
        np.testing.assert_allclose(Compose([])(image), image)

    def test_repr(self):
        assert "AppendRatioIndex(2, 3)" in repr(Compose([AppendRatioIndex(2, 3)]))


class TestAppendTransforms:
    def test_append_ndi(self, image):
        out = AppendNormalizedDifferenceIndex(0, 1)(image)
        assert out.shape == (5, 6, 6)
        np.testing.assert_allclose(
            out[4], normalized_difference(image[0], image[1]), rtol=1e-5
        )
        np.testing.assert_allclose(out[:4], image)

    def test_append_ratio(self, image):
        out = AppendRatioIndex(2, 3)(image)
        np.testing.assert_allclose(
            out[4], image[2] / (image[3] + 1e-8), rtol=1e-5
        )

    def test_chained_appends(self, image):
        chain = Compose(
            [AppendNormalizedDifferenceIndex(0, 1), AppendNormalizedDifferenceIndex(2, 3)]
        )
        assert chain(image).shape == (6, 6, 6)
