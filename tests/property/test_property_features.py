"""Property-based invariants of GLCM features, indices, and datasets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.datasets.base import GridDataset
from repro.core.preprocessing.raster.glcm import glcm_features, glcm_matrix
from repro.core.preprocessing.raster.indices import normalized_difference

bands = arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=3, max_value=12),
        st.integers(min_value=3, max_value=12),
    ),
    elements=st.floats(min_value=0, max_value=1, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(bands)
def test_glcm_matrix_is_distribution(band):
    m = glcm_matrix(band, levels=8)
    assert m.min() >= 0
    assert np.isclose(m.sum(), 1.0)


@settings(max_examples=40, deadline=None)
@given(bands)
def test_glcm_features_bounds(band):
    feats = glcm_features(band, levels=8)
    assert 0 <= feats["homogeneity"] <= 1.0 + 1e-9
    assert 0 <= feats["asm"] <= 1.0 + 1e-9
    assert -1.0 - 1e-9 <= feats["correlation"] <= 1.0 + 1e-9
    assert feats["contrast"] >= 0
    assert feats["dissimilarity"] >= 0


@settings(max_examples=40, deadline=None)
@given(bands)
def test_glcm_invariant_to_power_of_two_scaling(band):
    """Min-max quantization makes GLCM invariant to scaling.  Only
    power-of-two factors are bit-exact in IEEE arithmetic (general
    affine maps can flip values across quantization-bin boundaries),
    so the property is asserted for those."""
    a = glcm_features(band, levels=8)
    b = glcm_features(band * 4.0, levels=8)
    for name in a:
        assert np.isclose(a[name], b[name], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(bands, bands)
def test_ndi_antisymmetric(a, b):
    if a.shape != b.shape:
        return
    ab = normalized_difference(a, b)
    ba = normalized_difference(b, a)
    np.testing.assert_allclose(ab, -ba, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(bands)
def test_ndi_self_is_zero(a):
    out = normalized_difference(a, a)
    np.testing.assert_allclose(out, 0.0, atol=1e-5)


@st.composite
def grid_tensors(draw):
    t = draw(st.integers(min_value=10, max_value=40))
    h = draw(st.integers(min_value=2, max_value=5))
    w = draw(st.integers(min_value=2, max_value=5))
    c = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return np.random.default_rng(seed).random((t, h, w, c)).astype(np.float32)


@settings(max_examples=30, deadline=None)
@given(grid_tensors(), st.integers(min_value=1, max_value=5))
def test_grid_dataset_basic_length_invariant(tensor, lead):
    ds = GridDataset(tensor).set_basic_representation(lead_time=lead)
    assert len(ds) == max(0, tensor.shape[0] - lead)
    if len(ds) > 0:
        x, y = ds[len(ds) - 1]
        assert x.shape == y.shape


@settings(max_examples=30, deadline=None)
@given(grid_tensors(), st.data())
def test_grid_dataset_sequential_windows_consistent(tensor, data):
    max_hist = tensor.shape[0] - 2
    hist = data.draw(st.integers(min_value=1, max_value=max(1, max_hist)))
    pred = data.draw(
        st.integers(min_value=1, max_value=max(1, tensor.shape[0] - hist))
    )
    ds = GridDataset(tensor, normalize=False)
    if hist + pred > tensor.shape[0]:
        return
    ds.set_sequential_representation(hist, pred)
    for index in (0, len(ds) - 1):
        x, y = ds[index]
        # History window immediately precedes the prediction window.
        np.testing.assert_allclose(
            x[-1], tensor[index + hist - 1].transpose(2, 0, 1)
        )
        np.testing.assert_allclose(
            y[0], tensor[index + hist].transpose(2, 0, 1)
        )


@settings(max_examples=30, deadline=None)
@given(grid_tensors())
def test_grid_dataset_normalization_bounds(tensor):
    ds = GridDataset(tensor, normalize=True)
    assert ds.frames.min() >= -1e-6
    assert ds.frames.max() <= 1.0 + 1e-6
    # The scale inverts the normalization exactly at the extremes.
    raw = ds.frames * ds.scale + tensor.min()
    np.testing.assert_allclose(raw.min(), tensor.min(), atol=1e-4)
    np.testing.assert_allclose(raw.max(), tensor.max(), atol=1e-4)
