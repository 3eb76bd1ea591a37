"""``read_rtif(write_rtif(tile))`` is the identity on float32 bit
patterns and metadata, for every shape, memory layout and value the
container admits; both halves are also held to the format reference in
``tests/rtif_oracle.py``."""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Envelope
from tests.rtif_oracle import (
    LAYOUTS,
    SPECIAL_BITS,
    as_layout,
    assert_bit_exact_roundtrip,
)

axis = st.integers(min_value=0, max_value=5)
bits = st.one_of(
    st.sampled_from([int(b) for b in SPECIAL_BITS]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def envelopes(draw):
    x0, x1 = sorted((draw(finite), draw(finite)))
    y0, y1 = sorted((draw(finite), draw(finite)))
    return Envelope(x0, x1, y0, y1)


@st.composite
def pixel_arrays(draw):
    shape = (draw(axis), draw(axis), draw(axis))
    count = shape[0] * shape[1] * shape[2]
    words = draw(st.lists(bits, min_size=count, max_size=count))
    values = np.array(words, dtype=np.uint32).view(np.float32).reshape(shape)
    return as_layout(values, draw(st.sampled_from(LAYOUTS)))


@settings(max_examples=150, deadline=None)
@given(
    pixel_arrays(),
    st.text(max_size=12),
    st.sampled_from(["EPSG:4326", "EPSG:3857", "地方坐标"]),
    st.sampled_from([None, -1.0, float("nan"), 0.0, 1e38]),
    st.one_of(st.none(), envelopes()),
)
def test_roundtrip_is_bit_exact(source, name, crs, nodata, envelope):
    with tempfile.TemporaryDirectory() as folder:
        assert_bit_exact_roundtrip(
            source, folder, name=name, crs=crs, nodata=nodata, envelope=envelope
        )
