"""Property-based geometry invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Envelope, Point, Polygon, STRTree, UniformGrid

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)


@st.composite
def envelopes(draw):
    x0 = draw(coords)
    y0 = draw(coords)
    w = draw(st.floats(min_value=0.001, max_value=100, allow_nan=False))
    h = draw(st.floats(min_value=0.001, max_value=100, allow_nan=False))
    return Envelope(x0, x0 + w, y0, y0 + h)


@settings(max_examples=60, deadline=None)
@given(envelopes())
def test_envelope_contains_center_and_corners(env):
    assert env.contains_point(env.center)
    assert env.contains_point(Point(env.min_x, env.min_y))
    assert env.contains_point(Point(env.max_x, env.max_y))


@settings(max_examples=60, deadline=None)
@given(envelopes(), envelopes())
def test_intersects_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)


@settings(max_examples=60, deadline=None)
@given(envelopes(), envelopes())
def test_union_contains_both(a, b):
    u = a.union(b)
    for inner in (a, b):
        assert u.min_x <= inner.min_x and inner.max_x <= u.max_x
        assert u.min_y <= inner.min_y and inner.max_y <= u.max_y


@settings(max_examples=40, deadline=None)
@given(
    envelopes(),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_grid_assignment_consistent(env, nx, ny, data):
    grid = UniformGrid(env, nx, ny)
    x = data.draw(st.floats(min_value=env.min_x, max_value=env.max_x,
                            allow_nan=False))
    y = data.draw(st.floats(min_value=env.min_y, max_value=env.max_y,
                            allow_nan=False))
    (cell,) = grid.cell_ids_of_arrays([x], [y])
    assert 0 <= cell < nx * ny
    j, i = divmod(int(cell), nx)
    # The point lies in (or on the boundary of) its cell's envelope.
    cell_env = grid.cell_envelope(i, j)
    slack = 1e-9 * max(1.0, abs(x), abs(y))
    assert cell_env.min_x - slack <= x <= cell_env.max_x + slack
    assert cell_env.min_y - slack <= y <= cell_env.max_y + slack


@settings(max_examples=20, deadline=None)
@given(st.lists(envelopes(), min_size=1, max_size=60), envelopes())
def test_strtree_exact_vs_brute(envs, query):
    tree = STRTree([(e, i) for i, e in enumerate(envs)])
    expected = {i for i, e in enumerate(envs) if e.intersects(query)}
    assert set(tree.query(query)) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(coords, coords), min_size=3, max_size=10, unique=True
    )
)
def test_polygon_envelope_contains_polygon_points(vertices):
    try:
        poly = Polygon(vertices)
    except ValueError:
        return  # degenerate input: fine to reject
    for vertex in poly.vertices:
        assert poly.envelope.contains_point(vertex)
    # Points the polygon contains must be inside its envelope.
    probe = poly.envelope.center
    if poly.contains_point(probe):
        assert poly.envelope.contains_point(probe)
