"""STManager: envelope, grid aggregation, tensor materialization."""

import warnings

import numpy as np
import pytest

from repro.core.preprocessing.grid import STManager
from repro.engine import Session, agg
from repro.geometry import Envelope


@pytest.fixture
def session():
    return Session(default_parallelism=3)


def _df(session, lats, lons, times, **extra):
    data = {
        "lat": np.asarray(lats, dtype=np.float64),
        "lon": np.asarray(lons, dtype=np.float64),
        "t": np.asarray(times, dtype=np.float64),
    }
    data.update(extra)
    return session.create_dataframe(data)


class TestAddSpatialPoints:
    def test_packed_columns(self, session):
        df = _df(session, [1.0, 2.0], [10.0, 20.0], [0.0, 0.0])
        out = STManager.add_spatial_points(df, "lat", "lon", "point")
        rows = out.collect()
        assert rows[0]["point__x"] == 10.0
        assert rows[0]["point__y"] == 1.0
        assert "point__x" in out.columns


class TestEnvelope:
    """The envelope and temporal origin ``get_st_grid_dataframe``
    derives when the caller gives neither."""

    def test_empty_rejected(self, session):
        df = _df(session, [], [], [])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        with pytest.raises(ValueError, match="empty"):
            STManager.get_st_grid_dataframe(spatial, "point", 2, 2, "t", 600.0)

    def test_nan_does_not_hide_its_partitions_extrema(self):
        """Regression: ``min(inf, nan)`` keeps the running value, so a
        partition holding one NaN gave up its finite minimum and
        maximum: the envelope came out as x in [0, 2] and the grid kept
        3 of the 5 finite points."""
        session = Session(default_parallelism=2)
        df = session.create_dataframe(
            {
                "lat": np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
                "lon": np.array([0.0, 1.0, 2.0, 10.0, np.nan, 20.0]),
                "t": np.zeros(6),
            },
            num_partitions=2,
        )
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(spatial, "point", 2, 1, "t", 600.0)
        counts = {r["cell_id"]: r["count"] for r in st.collect()}
        assert counts == {0: 3, 1: 2}  # cells of width 10 over x in [0, 20]

    def test_column_without_a_finite_value_rejected(self, session):
        df = _df(session, [0.0, 1.0], [np.nan, np.inf], [0.0, 1.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        with pytest.raises(ValueError, match="point__x.*no finite value"):
            STManager.get_st_grid_dataframe(spatial, "point", 2, 2, "t", 600.0)


class TestGridAggregation:
    def test_counts_match_manual(self, session, rng):
        n = 500
        lats = rng.uniform(0, 4, n)
        lons = rng.uniform(0, 8, n)
        times = rng.uniform(0, 3600, n)
        df = _df(session, lats, lons, times)
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        env = Envelope(0, 8, 0, 4)
        st = STManager.get_st_grid_dataframe(
            spatial, "point", partitions_x=4, partitions_y=2,
            col_date="t", step_duration_sec=600.0,
            envelope=env, temporal_origin=0.0,
        )
        rows = st.collect()
        # Manual reference aggregation.
        xi = np.clip((lons / 2).astype(int), 0, 3)
        yi = np.clip((lats / 2).astype(int), 0, 1)
        cell = yi * 4 + xi
        step = (times / 600).astype(int)
        expected = {}
        for c, s in zip(cell, step):
            expected[(s, c)] = expected.get((s, c), 0) + 1
        got = {(r["time_step"], r["cell_id"]): r["count"] for r in rows}
        assert got == expected
        assert sum(got.values()) == n

    def test_cell_xy_columns(self, session):
        df = _df(session, [0.5], [6.5], [0.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(
            spatial, "point", 4, 2, "t", 600.0,
            envelope=Envelope(0, 8, 0, 4), temporal_origin=0.0,
        )
        row = st.collect()[0]
        assert row["cell_x"] == 3 and row["cell_y"] == 0
        assert row["cell_id"] == row["cell_y"] * 4 + row["cell_x"]

    def test_out_of_envelope_dropped(self, session):
        df = _df(session, [0.5, 100.0], [0.5, 100.0], [0.0, 0.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(
            spatial, "point", 2, 2, "t", 60.0,
            envelope=Envelope(0, 1, 0, 1), temporal_origin=0.0,
        )
        rows = st.collect()
        assert sum(r["count"] for r in rows) == 1

    def test_extra_aggregations(self, session):
        df = _df(
            session, [0.5, 0.5], [0.5, 0.5], [0.0, 1.0],
            fare=np.array([10.0, 30.0]),
        )
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(
            spatial, "point", 1, 1, "t", 3600.0,
            envelope=Envelope(0, 1, 0, 1), temporal_origin=0.0,
            aggregations=[agg.mean("fare", "mean_fare")],
        )
        row = st.collect()[0]
        assert row["count"] == 2
        assert row["mean_fare"] == pytest.approx(20.0)

    def test_auto_envelope_and_origin(self, session):
        df = _df(session, [0.0, 1.0], [0.0, 1.0], [100.0, 700.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(
            spatial, "point", 2, 2, "t", 600.0
        )
        rows = st.collect()
        steps = sorted(r["time_step"] for r in rows)
        assert steps == [0, 1]  # origin derived from min time

    def test_parameter_validation(self, session):
        df = _df(session, [0.0], [0.0], [0.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        with pytest.raises(ValueError):
            STManager.get_st_grid_dataframe(spatial, "point", 0, 2, "t", 600)
        with pytest.raises(ValueError):
            STManager.get_st_grid_dataframe(spatial, "point", 2, 2, "t", 0)


class TestGridArray:
    def test_dense_tensor(self, session):
        df = _df(
            session,
            [0.25, 0.25, 0.75, 0.25],
            [0.25, 0.25, 0.75, 0.25],
            [0.0, 10.0, 0.0, 700.0],
        )
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(
            spatial, "point", 2, 2, "t", 600.0,
            envelope=Envelope(0, 1, 0, 1), temporal_origin=0.0,
        )
        tensor = STManager.get_st_grid_array(st, 2, 2, num_steps=2)
        assert tensor.shape == (2, 2, 2, 1)
        assert tensor[0, 0, 0, 0] == 2.0  # two points in cell (0,0) step 0
        assert tensor[0, 1, 1, 0] == 1.0
        assert tensor[1, 0, 0, 0] == 1.0
        assert tensor.sum() == 4.0

    def test_num_steps_inferred(self, session):
        df = _df(session, [0.5], [0.5], [1300.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(
            spatial, "point", 1, 1, "t", 600.0,
            envelope=Envelope(0, 1, 0, 1), temporal_origin=0.0,
        )
        tensor = STManager.get_st_grid_array(st, 1, 1)
        assert tensor.shape[0] == 3  # steps 0..2 inferred

    def test_steps_beyond_range_ignored(self, session):
        df = _df(session, [0.5, 0.5], [0.5, 0.5], [0.0, 100000.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(
            spatial, "point", 1, 1, "t", 600.0,
            envelope=Envelope(0, 1, 0, 1), temporal_origin=0.0,
        )
        tensor = STManager.get_st_grid_array(st, 1, 1, num_steps=2)
        assert tensor.sum() == 1.0

    @pytest.mark.parametrize("cell", [-1, 4])
    def test_cell_outside_grid_raises(self, session, cell):
        # -1 used to wrap into the last cell; 4 raised a bare IndexError.
        st = session.create_dataframe(
            {
                "time_step": np.array([0, 0]),
                "cell_id": np.array([0, cell]),
                "count": np.array([1, 2]),
            }
        )
        with pytest.raises(ValueError, match=r"cell_id must be in \[0, 4\)"):
            STManager.get_st_grid_array(st, 2, 2, num_steps=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamp_dropped_without_a_warning(self, session, bad):
        """Regression: a NaN timestamp became a group at time step
        -2**63 (``floor(nan)`` cast to int64, with a RuntimeWarning)
        instead of being dropped like a NaN coordinate."""
        df = _df(session, [0.5] * 3, [0.5] * 3, [0.0, bad, 700.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = STManager.get_st_grid_dataframe(
                spatial, "point", 1, 1, "t", 600.0,
                envelope=Envelope(0, 1, 0, 1), temporal_origin=0.0,
            )
            rows = st.collect()
        assert sorted((r["time_step"], r["count"]) for r in rows) == [(0, 1), (1, 1)]

    def test_non_finite_coordinate_dropped_without_a_warning(self, session):
        df = _df(session, [0.5, np.nan, 0.5], [0.5, 0.5, np.inf], [0.0, 0.0, 0.0])
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = STManager.get_st_grid_dataframe(
                spatial, "point", 1, 1, "t", 600.0,
                envelope=Envelope(0, 1, 0, 1), temporal_origin=0.0,
            ).collect()
        assert [(r["time_step"], r["count"]) for r in rows] == [(0, 1)]


class TestGridUpdate:
    def _tensor(self, steps=2, py=2, px=2, channels=1):
        return np.zeros((steps, py, px, channels), dtype=np.float32)

    def _delta(self, steps, cells, counts):
        from repro.engine import Partition

        return Partition(
            {
                "time_step": np.asarray(steps, dtype=np.int64),
                "cell_id": np.asarray(cells, dtype=np.int64),
                "count": np.asarray(counts, dtype=np.float64),
            }
        )

    def test_scatter_touches_only_delta_entries(self):
        tensor = self._tensor()
        tensor[:] = 7.0
        out = STManager.update_st_grid_array(
            tensor, self._delta([0, 1], [0, 3], [2.0, 5.0]), 2, 2
        )
        assert out is tensor  # no growth: updated in place
        assert out[0, 0, 0, 0] == 2.0
        assert out[1, 1, 1, 0] == 5.0
        assert (out == 7.0).sum() == out.size - 2

    def test_growth_preserves_existing_and_returns_new(self):
        tensor = self._tensor(steps=1)
        tensor[0, 0, 0, 0] = 3.0
        out = STManager.update_st_grid_array(
            tensor, self._delta([4], [1], [9.0]), 2, 2
        )
        assert out is not tensor
        assert out.shape == (5, 2, 2, 1)
        assert out[0, 0, 0, 0] == 3.0  # old contents copied over
        assert out[4, 0, 1, 0] == 9.0
        assert out[1:4].sum() == 0.0  # grown region zeroed
        STManager.release_st_grid_array(out)

    def test_fixed_num_steps_drops_out_of_range(self):
        tensor = self._tensor(steps=2)
        out = STManager.update_st_grid_array(
            tensor,
            self._delta([0, 99, -1], [0, 0, 0], [1.0, 8.0, 8.0]),
            2,
            2,
            num_steps=2,
        )
        assert out is tensor
        assert out[0, 0, 0, 0] == 1.0
        assert out.sum() == 1.0  # step 99 and -1 dropped, like the rebuild

    @pytest.mark.parametrize("cell", [-1, 4])
    def test_cell_outside_grid_leaves_tensor_unchanged(self, session, cell):
        # The bad cell sits in the second part: the first part must not
        # have been written when the delta is refused.
        tensor = self._tensor()
        tensor[:] = 7.0
        delta = session.create_dataframe(
            {
                "time_step": np.array([0, 1]),
                "cell_id": np.array([0, cell]),
                "count": np.array([2.0, 5.0]),
            },
            num_partitions=2,
        )
        assert delta.num_partitions() == 2
        with pytest.raises(ValueError, match=r"cell_id must be in \[0, 4\)"):
            STManager.update_st_grid_array(tensor, delta, 2, 2)
        assert (tensor == 7.0).all()
        # Nor is a growing delta's tensor swapped for a larger one.
        with pytest.raises(ValueError, match="cell_id"):
            STManager.update_st_grid_array(
                tensor, self._delta([9], [cell], [1.0]), 2, 2
            )
        assert (tensor == 7.0).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            STManager.update_st_grid_array(
                self._tensor(py=3), self._delta([0], [0], [1.0]), 2, 2
            )

    def test_empty_delta_is_a_no_op(self):
        tensor = self._tensor()
        out = STManager.update_st_grid_array(
            tensor, self._delta([], [], []), 2, 2
        )
        assert out is tensor
        assert out.sum() == 0.0

    def test_grid_metrics_advance(self, session):
        from repro import obs

        updates = obs.registry.counter("st.grid.updates")
        touched = obs.registry.counter("st.grid.cells_touched")
        before_updates, before_touched = updates.value, touched.value
        tensor = self._tensor()
        STManager.update_st_grid_array(
            tensor, self._delta([0, 0], [0, 1], [1.0, 1.0]), 2, 2
        )
        assert updates.value == before_updates + 1
        assert touched.value == before_touched + 2
        assert obs.registry.gauge("st.grid.alloc_bytes").value >= 0


def _records(rng, n=600):
    return {
        "lat": rng.uniform(0, 4, n),
        "lon": rng.uniform(0, 8, n),
        "t": rng.uniform(0, 3600, n),
        "fare": rng.uniform(1, 20, n),
    }


def _grid_frame(session, records, **kwargs):
    spatial = STManager.add_spatial_points(
        session.create_dataframe(records), "lat", "lon", "point"
    )
    kwargs.setdefault("envelope", Envelope(0, 8, 0, 4))
    kwargs.setdefault("temporal_origin", 0.0)
    return STManager.get_st_grid_dataframe(
        spatial, "point", 4, 2, "t", 600.0,
        aggregations=[agg.mean("fare", "mean_fare")], **kwargs,
    )


def _snapshot(df):
    """Every byte a frame yields, partition by partition."""
    return [
        {name: values.tobytes() for name, values in part.columns.items()}
        for part in df.iter_partitions()
    ]


class TestCachedGridFrame:
    """``get_st_grid_dataframe`` returns its aggregate behind a Cache:
    the plan over the records runs once however often the frame is
    consumed."""

    def test_missing_envelope_and_origin_cost_one_scan(self, session, rng):
        scans = []

        def spy(part):
            scans.append(part.num_rows)
            return part

        records = _records(rng)
        spatial = STManager.add_spatial_points(
            session.create_dataframe(records), "lat", "lon", "point"
        ).map_partitions(spy)
        st = STManager.get_st_grid_dataframe(spatial, "point", 4, 2, "t", 600.0)
        assert len(scans) == 3  # one pass finds all five extrema
        rows = st.collect()
        assert len(scans) == 6  # ... and the aggregate is the second
        assert st.collect() == rows
        assert len(scans) == 6  # replayed from the cache
        explicit = STManager.get_st_grid_dataframe(
            spatial, "point", 4, 2, "t", 600.0,
            envelope=Envelope(
                records["lon"].min(), records["lon"].max(),
                records["lat"].min(), records["lat"].max(),
            ),
            temporal_origin=float(records["t"].min()),
        )
        assert explicit.collect() == rows

    def test_consumers_never_mutate_the_cached_partitions(self, session, rng):
        from repro.core.converter import DFToTorchConverter, SpatiotemporalSpec

        st_df = _grid_frame(session, _records(rng))
        before = _snapshot(st_df)
        tensor = STManager.get_st_grid_array(st_df, 4, 2)
        tensor = STManager.update_st_grid_array(tensor, st_df, 4, 2)
        tensor *= 2.0
        spec = SpatiotemporalSpec(4, 2, value_columns=("count", "mean_fare"))
        for x, y in DFToTorchConverter(spec).convert(st_df, batch_size=2):
            x.data[...] = -1.0
            y.data[...] = -1.0
        assert _snapshot(st_df) == before
        STManager.release_st_grid_array(tensor)

    def test_capped_meter_refusal_leaves_the_aggregate_cold(self, rng):
        """A meter cap one byte under the uncapped peak refuses the
        query where the aggregate is built.  The meter is back where
        the query found it, the cache is cold, and an uncapped retry
        yields the uncapped frame and tensor bit for bit."""
        from repro.utils.memory import MemoryBudgetExceeded, MemoryMeter

        records = _records(rng)
        reference = MemoryMeter()
        expected_df = _grid_frame(
            Session(default_parallelism=3, meter=reference), records
        )
        expected = STManager.get_st_grid_array(
            expected_df, 4, 2, value_columns=["count", "mean_fare"]
        ).copy()
        expected_parts = _snapshot(expected_df)

        meter = MemoryMeter(cap_bytes=reference.peak - 1)
        st_df = _grid_frame(Session(default_parallelism=3, meter=meter), records)
        with pytest.raises(MemoryBudgetExceeded):
            STManager.get_st_grid_array(st_df, 4, 2)
        assert meter.current == 0
        assert st_df.plan.materialized is None
        meter.cap_bytes = None
        for _ in range(2):  # cold, then replayed
            tensor = STManager.get_st_grid_array(
                st_df, 4, 2, value_columns=["count", "mean_fare"]
            )
            assert tensor.tobytes() == expected.tobytes()
            STManager.release_st_grid_array(tensor)
        assert _snapshot(st_df) == expected_parts

    def test_meter_returns_to_baseline_when_grids_are_dropped(self, rng):
        import gc

        from repro.engine.executor import iter_partitions
        from repro.utils.memory import MemoryMeter

        records = _records(rng)
        meter = MemoryMeter()
        session = Session(default_parallelism=3, meter=meter)
        for _ in range(3):
            st_df = _grid_frame(session, records)
            STManager.release_st_grid_array(
                STManager.get_st_grid_array(st_df, 4, 2)
            )
        aggregate = sum(p.nbytes for p in st_df.iter_partitions())
        assert meter.current == aggregate  # the earlier two were given back
        # The cold pass held nothing twice: the peak is the uncached
        # plan's, or the resident aggregate beside a replay's nothing.
        reference = MemoryMeter()
        # The plan beneath the cache, as is.
        for _ in iter_partitions(st_df.plan.child, meter=reference):
            pass
        assert reference.current == 0
        assert meter.peak <= reference.peak + aggregate
        del st_df, session
        gc.collect()
        assert meter.current == 0
