"""The batched spatial join and its two kernels, held to the scalar
methods they vectorise: ``STRTree.query_points`` to ``query_point``,
``ray_cast`` to ``Polygon.contains_point``, and the join to the
per-row loop in ``tests/spatial_oracle.py``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preprocessing.grid import SpacePartition
from repro.engine import Session
from repro.engine.partition import Partition
from repro.engine.schema import Field, Schema
from repro.geometry import Envelope, Point, Polygon, STRTree
from repro.geometry.polygon import pack_rings, ray_cast
from repro.spatial import spatial_join_points_polygons
from tests.spatial_oracle import oracle_join, split_on_diagonal

# A coarse lattice makes the interesting coincidences common: points on
# vertices, edges and envelope corners, horizontal edges, duplicate and
# zero-area envelopes.  Halves fall on edge midpoints and cell centres.
lattice = st.integers(min_value=-8, max_value=8).map(lambda k: k / 2)
anywhere = st.floats(min_value=-6, max_value=6, allow_nan=False)
coordinate = st.one_of(lattice, anywhere)
infinite = st.sampled_from([np.inf, -np.inf])


@st.composite
def lattice_envelopes(draw):
    x0, x1 = sorted((draw(lattice), draw(lattice)))
    y0, y1 = sorted((draw(lattice), draw(lattice)))
    return Envelope(x0, x1, y0, y1)


@st.composite
def rings(draw):
    """Any ring of 3-9 lattice vertices: concave and self-touching ones
    included — the scalar and batched ray-cast must agree on all."""
    vertices = draw(
        st.lists(st.tuples(lattice, lattice), min_size=3, max_size=9, unique=True)
    )
    return Polygon(vertices)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(lattice_envelopes(), max_size=40),
    st.integers(min_value=2, max_value=16),
    st.lists(
        st.tuples(st.one_of(coordinate, infinite), st.one_of(coordinate, infinite)),
        max_size=30,
    ),
)
def test_query_points_equals_query_point(envelopes, node_capacity, points):
    tree = STRTree(
        [(env, idx) for idx, env in enumerate(envelopes)], node_capacity
    )
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    index, payload = tree.query_points(xs, ys)
    assert np.all(np.diff(index) >= 0)
    for i, (x, y) in enumerate(points):
        assert sorted(payload[index == i]) == sorted(tree.query_point(Point(x, y)))


@settings(max_examples=150, deadline=None)
@given(rings(), st.lists(st.tuples(coordinate, coordinate), max_size=40))
def test_ray_cast_equals_contains_point(polygon, points):
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    expected = [polygon.contains_point(Point(x, y)) for x, y in points]
    every = np.arange(len(points))
    got = ray_cast(pack_rings([polygon]), xs, ys, every, np.zeros_like(every))
    assert got.tolist() == expected


@st.composite
def zone_sets(draw):
    kind = draw(st.sampled_from(["rectangles", "triangles", "concave", "overlapping"]))
    if kind in ("rectangles", "triangles"):
        cells = SpacePartition.generate_grid_cells(
            Envelope(-4, 4, -4, 4),
            draw(st.integers(min_value=1, max_value=5)),
            draw(st.integers(min_value=1, max_value=5)),
        )
        return cells if kind == "rectangles" else split_on_diagonal(cells)
    if kind == "concave":
        # L-shaped hexagons on a lattice: disjoint interiors, shared
        # edges, and a horizontal edge inside every envelope.
        zones = []
        for j in range(-2, 2):
            for i in range(-2, 2):
                x, y = 2 * i, 2 * j
                zones.append(
                    Polygon(
                        [(x, y), (x + 2, y), (x + 2, y + 1), (x + 1, y + 1),
                         (x + 1, y + 2), (x, y + 2)]
                    )
                )
        return zones
    return draw(st.lists(rings(), min_size=1, max_size=25))


@settings(max_examples=120, deadline=None)
@given(
    zone_sets(),
    st.lists(
        st.tuples(
            st.one_of(coordinate, infinite, st.just(np.nan)),
            st.one_of(coordinate, infinite, st.just(np.nan)),
        ),
        max_size=60,
    ),
    st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    st.booleans(),
    st.booleans(),
)
def test_join_equals_per_row_oracle(zones, points, cuts, use_index, as_int):
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    if as_int:
        # Integer-typed coordinate columns (NaN and inf cannot occur).
        xs = np.nan_to_num(xs, nan=0, posinf=9, neginf=-9).round().astype(np.int64)
        ys = np.nan_to_num(ys, nan=0, posinf=9, neginf=-9).round().astype(np.int32)
    columns = {"x": xs, "y": ys, "row": np.arange(len(xs))}
    # 1-6 explicit partitions, empty ones included.
    bounds = [0, *sorted(min(c, len(xs)) for c in cuts), len(xs)]
    factories = [
        lambda a=a, b=b: Partition({k: c[a:b] for k, c in columns.items()})
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    schema = Schema([Field(k, c.dtype) for k, c in columns.items()])
    joined = spatial_join_points_polygons(
        Session().from_partitions(factories, schema), zones, "x", "y",
        use_index=use_index,
    ).to_columns()
    rows, ids, _ = oracle_join(xs, ys, zones, use_index=use_index)
    assert joined["row"].tolist() == rows.tolist()
    assert joined["polygon_id"].tolist() == ids.tolist()
    assert joined["polygon_id"].dtype == np.int64
    assert joined["x"].tolist() == xs[rows].tolist()
