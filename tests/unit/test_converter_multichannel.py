"""Multi-channel spatiotemporal conversion (pickup + dropoff style)."""

import numpy as np
import pytest

from repro.core.converter import DFToTorchConverter, SpatiotemporalSpec
from repro.engine import Session


@pytest.fixture
def session():
    return Session(default_parallelism=2)


class TestMultiChannelST:
    def _df(self, session):
        rows = []
        for t in range(6):
            rows.append(
                {
                    "time_step": t,
                    "cell_id": t % 4,
                    "pickups": float(t + 1),
                    "dropoffs": float(10 * (t + 1)),
                }
            )
        return session.create_dataframe(rows)

    def test_two_channels(self, session):
        spec = SpatiotemporalSpec(
            partitions_x=2,
            partitions_y=2,
            value_columns=("pickups", "dropoffs"),
            lead_time=1,
        )
        batches = list(
            DFToTorchConverter(spec).convert(self._df(session), batch_size=8)
        )
        xs = np.concatenate([b[0].numpy() for b in batches])
        assert xs.shape == (5, 2, 2, 2)
        # Frame 0: cell 0 holds (pickups=1, dropoffs=10).
        assert xs[0, 0, 0, 0] == 1.0
        assert xs[0, 1, 0, 0] == 10.0

    def test_channel_order_matches_spec(self, session):
        spec = SpatiotemporalSpec(
            partitions_x=2,
            partitions_y=2,
            value_columns=("dropoffs", "pickups"),
        )
        x, _ = next(iter(DFToTorchConverter(spec).convert(self._df(session))))
        assert x.numpy()[0, 0, 0, 0] == 10.0  # dropoffs first now

    def test_custom_column_names(self, session):
        rows = [{"t": 0, "c": 0, "count": 3.0}, {"t": 1, "c": 1, "count": 4.0}]
        df = session.create_dataframe(rows)
        spec = SpatiotemporalSpec(
            partitions_x=2, partitions_y=1,
            value_columns=("count",), time_column="t", cell_column="c",
        )
        x, y = next(iter(DFToTorchConverter(spec).convert(df, batch_size=4)))
        assert x.numpy()[0, 0, 0, 0] == 3.0
        assert y.numpy()[0, 0, 0, 1] == 4.0

    def test_matches_st_manager_array(self, session, rng):
        """The converter's frames equal STManager.get_st_grid_array
        for a two-channel aggregate (count + mean)."""
        from repro.core.preprocessing.grid import STManager
        from repro.engine import agg

        n = 300
        df = session.create_dataframe(
            {
                "lat": rng.uniform(0, 2, n),
                "lon": rng.uniform(0, 2, n),
                "t": rng.uniform(0, 1800, n),
                "fare": rng.uniform(1, 20, n),
            }
        )
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        from repro.geometry import Envelope

        st_df = STManager.get_st_grid_dataframe(
            spatial, "point", 2, 2, "t", 600.0,
            envelope=Envelope(0, 2, 0, 2), temporal_origin=0.0,
            aggregations=[agg.mean("fare", "mean_fare")],
        )
        dense = STManager.get_st_grid_array(
            st_df, 2, 2, num_steps=3, value_columns=["count", "mean_fare"]
        )
        spec = SpatiotemporalSpec(
            partitions_x=2, partitions_y=2,
            value_columns=("count", "mean_fare"), lead_time=1,
        )
        batches = list(DFToTorchConverter(spec).convert(st_df, batch_size=8))
        xs = np.concatenate([b[0].numpy() for b in batches])
        np.testing.assert_allclose(
            xs, dense.transpose(0, 3, 1, 2)[: len(xs)], rtol=1e-5
        )


class TestOneFrameManyConsumers:
    def test_grid_plan_runs_once_across_arrays_and_epochs(self, session, rng):
        """One ``st_df`` through ``get_st_grid_array`` twice and two
        converter epochs aggregates the records once — every later
        action replays the cached aggregate — with the bits of the
        uncached plan."""
        from repro import obs
        from repro.core.preprocessing.grid import STManager
        from repro.engine import agg
        from repro.engine.dataframe import DataFrame
        from repro.geometry import Envelope

        n = 400
        df = session.create_dataframe(
            {
                "lat": rng.uniform(0, 2, n),
                "lon": rng.uniform(0, 2, n),
                "t": rng.uniform(0, 3000, n),
                "fare": rng.uniform(1, 20, n),
            }
        )
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st_df = STManager.get_st_grid_dataframe(
            spatial, "point", 2, 2, "t", 600.0,
            envelope=Envelope(0, 2, 0, 2), temporal_origin=0.0,
            aggregations=[agg.mean("fare", "mean_fare")],
        )
        columns = ["count", "mean_fare"]
        spec = SpatiotemporalSpec(2, 2, value_columns=tuple(columns))

        def consume(frame):
            tensors = [
                STManager.get_st_grid_array(frame, 2, 2, value_columns=columns).copy()
                for _ in range(2)
            ]
            loader = DFToTorchConverter(spec).convert(frame, batch_size=2)
            epochs = [
                [(x.numpy().copy(), y.numpy().copy()) for x, y in loader]
                for _ in range(2)
            ]
            return tensors, epochs

        group_bys = obs.registry.counter("engine.op.GroupByAgg.partitions")
        before = group_bys.value
        tensors, epochs = consume(st_df)
        assert group_bys.value - before == 1
        # The plan beneath the cache, run as an ordinary frame: four
        # actions, four aggregations, the same bits.
        uncached = DataFrame(Session(default_parallelism=2), st_df.plan.child)
        ref_tensors, ref_epochs = consume(uncached)
        assert group_bys.value - before == 1 + 4
        for got, ref in zip(tensors + tensors[:1], ref_tensors + tensors[1:]):
            np.testing.assert_array_equal(got, ref)
        assert len(epochs[0]) == len(epochs[1]) == len(ref_epochs[0]) > 1
        for epoch in (epochs[1], ref_epochs[0], ref_epochs[1]):
            for (x, y), (rx, ry) in zip(epochs[0], epoch):
                np.testing.assert_array_equal(x, rx)
                np.testing.assert_array_equal(y, ry)
