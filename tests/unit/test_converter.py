"""DFtoTorch converter: specs, formatter, streaming batches."""

import numpy as np
import pytest

from repro.core.converter import (
    ClassificationSpec,
    DFFormatter,
    DFToTorchConverter,
    FrameOrderError,
    RowTransformer,
    SpatiotemporalSpec,
)
from repro.core.datasets import WindowPlan
from repro.engine import Session, agg
from repro.spatial import RasterTile
from repro.tensor import Tensor


@pytest.fixture
def session():
    return Session(default_parallelism=3)


def _tile_df(session, rng, n=10, with_features=False):
    tiles = np.empty(n, dtype=object)
    for i in range(n):
        tiles[i] = RasterTile(rng.random((2, 4, 4), dtype=np.float32))
    data = {
        "tile": tiles,
        "label": rng.integers(0, 3, n),
    }
    if with_features:
        feats = np.empty(n, dtype=object)
        for i in range(n):
            feats[i] = rng.random(5).astype(np.float32)
        data["features"] = feats
    return session.create_dataframe(data)


class TestClassificationConversion:
    def test_batches(self, session, rng):
        df = _tile_df(session, rng, n=10)
        converter = DFToTorchConverter(ClassificationSpec())
        batches = list(converter.convert(df, batch_size=4))
        assert [b[0].shape[0] for b in batches] == [4, 4, 2]
        x, y = batches[0]
        assert isinstance(x, Tensor) and isinstance(y, Tensor)
        assert x.shape == (4, 2, 4, 4)
        assert y.dtype == np.int64

    def test_values_match_source(self, session, rng):
        df = _tile_df(session, rng, n=6)
        source = [r["tile"].data for r in df.collect()]
        converter = DFToTorchConverter(ClassificationSpec())
        xs = np.concatenate(
            [x.numpy() for x, _ in converter.convert(df, batch_size=4)]
        )
        np.testing.assert_allclose(xs, np.stack(source))

    def test_feature_column(self, session, rng):
        df = _tile_df(session, rng, n=6, with_features=True)
        converter = DFToTorchConverter(
            ClassificationSpec(feature_column="features")
        )
        x, y, f = next(iter(converter.convert(df, batch_size=3)))
        assert f.shape == (3, 5)

    def test_transform_applied(self, session, rng):
        df = _tile_df(session, rng, n=4)
        converter = DFToTorchConverter(ClassificationSpec())
        batches = converter.convert(
            df, batch_size=4, transform=lambda img: img * 0
        )
        x, _ = next(iter(batches))
        assert x.numpy().sum() == 0

    def test_reiterable(self, session, rng):
        df = _tile_df(session, rng, n=6)
        stream = DFToTorchConverter(ClassificationSpec()).convert(df, batch_size=4)
        assert len(list(stream)) == 2
        assert len(list(stream)) == 2  # second epoch works


class TestSpatiotemporalConversion:
    def _sparse_df(self, session, num_steps=10, w=3, h=2):
        rows = []
        for t in range(num_steps):
            rows.append({"time_step": t, "cell_id": t % (w * h), "count": float(t + 1)})
        return session.create_dataframe(rows)

    def test_frame_pairs(self, session):
        df = self._sparse_df(session)
        spec = SpatiotemporalSpec(partitions_x=3, partitions_y=2, lead_time=1)
        batches = list(DFToTorchConverter(spec).convert(df, batch_size=4))
        xs = np.concatenate([b[0].numpy() for b in batches])
        ys = np.concatenate([b[1].numpy() for b in batches])
        assert len(xs) == 9  # 10 frames -> 9 pairs
        # y_t is x_{t+1}:
        np.testing.assert_allclose(ys[:-1], xs[1:])

    def test_lead_time(self, session):
        df = self._sparse_df(session)
        spec = SpatiotemporalSpec(partitions_x=3, partitions_y=2, lead_time=3)
        batches = list(DFToTorchConverter(spec).convert(df, batch_size=32))
        xs, ys = batches[0]
        assert xs.shape[0] == 7
        # Frame t has value (t+1) at cell t%6.
        x0 = xs.numpy()[0]
        y0 = ys.numpy()[0]
        assert x0[0, 0, 0] == 1.0
        assert y0[0, 1, 0] == 4.0  # cell 3 -> (row 1, col 0)

    def test_sparse_cells_zero_filled(self, session):
        df = session.create_dataframe(
            [{"time_step": 0, "cell_id": 0, "count": 5.0},
             {"time_step": 1, "cell_id": 3, "count": 7.0}]
        )
        spec = SpatiotemporalSpec(partitions_x=2, partitions_y=2)
        x, y = next(iter(DFToTorchConverter(spec).convert(df, batch_size=1)))
        assert x.numpy()[0, 0, 0, 0] == 5.0
        assert x.numpy().sum() == 5.0
        assert y.numpy()[0, 0, 1, 1] == 7.0

    def test_unordered_input_raises_typed_error(self, session):
        rows = [
            {"time_step": 5, "cell_id": 0, "count": 6.0},
            {"time_step": 1, "cell_id": 0, "count": 2.0},
            {"time_step": 3, "cell_id": 0, "count": 4.0},
        ]
        spec = SpatiotemporalSpec(partitions_x=1, partitions_y=1)
        # Out of order within one partition: the formatter refuses it.
        one = Session(default_parallelism=1).create_dataframe(rows)
        with pytest.raises(FrameOrderError, match=r"group_by\(time, cell\)"):
            list(DFFormatter(spec).format(one).iter_partitions())
        # Out of order across partitions: the row transformer does.
        three = session.create_dataframe(rows)
        assert three.num_partitions() == 3
        with pytest.raises(FrameOrderError, match=r"group_by\(time, cell\)"):
            list(DFToTorchConverter(spec).convert(three))
        # group_by(time, cell) is the way to an ordered frame; frame t
        # is step t, and the absent steps 0, 2 and 4 are zero frames.
        ordered = three.group_by("time_step", "cell_id").agg(
            agg.sum_("count", "count")
        )
        x, y = next(iter(DFToTorchConverter(spec).convert(ordered)))
        np.testing.assert_array_equal(x.numpy().ravel(), [0.0, 2.0, 0.0, 4.0, 0.0])
        np.testing.assert_array_equal(y.numpy().ravel(), [2.0, 0.0, 4.0, 0.0, 6.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
    def test_non_integral_time_step_raises(self, bad):
        # A NaN step used to become a frame stamped INT64_MIN, emitted
        # first.
        df = Session(default_parallelism=1).create_dataframe(
            {
                "time_step": np.array([0.0, bad, 2.0]),
                "cell_id": np.array([0, 0, 0]),
                "count": np.array([1.0, 2.0, 3.0]),
            }
        )
        spec = SpatiotemporalSpec(partitions_x=1, partitions_y=1)
        with pytest.raises(FrameOrderError, match="not a finite whole number"):
            list(DFToTorchConverter(spec).convert(df))

    def test_integral_float_steps_accepted(self):
        df = Session(default_parallelism=1).create_dataframe(
            {
                "time_step": np.array([0.0, 1.0, 2.0]),
                "cell_id": np.array([0, 0, 0]),
                "count": np.array([1.0, 2.0, 3.0]),
            }
        )
        spec = SpatiotemporalSpec(partitions_x=1, partitions_y=1)
        x, y = next(iter(DFToTorchConverter(spec).convert(df)))
        np.testing.assert_array_equal(x.numpy().ravel(), [1.0, 2.0])
        np.testing.assert_array_equal(y.numpy().ravel(), [2.0, 3.0])

    @pytest.mark.parametrize("cell", [-1, 4])
    def test_cell_outside_grid_raises(self, session, cell):
        # -1 used to wrap into cell (1, 1); 4 raised a bare IndexError.
        df = session.create_dataframe(
            {
                "time_step": np.array([0, 1]),
                "cell_id": np.array([0, cell]),
                "count": np.array([1.0, 2.0]),
            }
        )
        spec = SpatiotemporalSpec(partitions_x=2, partitions_y=2)
        with pytest.raises(ValueError, match=r"cell_id must be in \[0, 4\)"):
            list(DFToTorchConverter(spec).convert(df))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lead_time": 0},
            {"lead_time": -1},
            {"partitions_x": 0},
            {"partitions_y": 0},
        ],
    )
    def test_spec_rejects_non_positive_sizes(self, kwargs):
        args = {"partitions_x": 2, "partitions_y": 2, **kwargs}
        with pytest.raises(ValueError, match="must be positive"):
            SpatiotemporalSpec(**args)

    def test_transform_runs_on_each_x_frame(self, session):
        df = self._sparse_df(session)
        spec = SpatiotemporalSpec(partitions_x=3, partitions_y=2)
        seen = []

        def double(frame):
            seen.append(frame.shape)
            return frame * 2

        converter = DFToTorchConverter(spec)
        plain = list(converter.convert(df, batch_size=4))
        doubled = list(converter.convert(df, batch_size=4, transform=double))
        assert seen == [(1, 2, 3)] * 9
        for (x, y), (x2, y2) in zip(plain, doubled):
            np.testing.assert_array_equal(x2.numpy(), 2 * x.numpy())
            np.testing.assert_array_equal(y2.numpy(), y.numpy())

    def test_shuffle_buffer_rejected(self, session):
        df = self._sparse_df(session)
        spec = SpatiotemporalSpec(partitions_x=3, partitions_y=2)
        with pytest.raises(ValueError, match="shuffle_buffer"):
            DFToTorchConverter(spec).convert(df, shuffle_buffer=4)

    @pytest.mark.parametrize("parts", [2, 3, 5, 7])
    def test_step_split_across_partitions_is_one_frame(self, parts):
        # Repeated (step, cell) rows, -0.0 over a value, a step spread
        # over several partitions: every split gives the bytes of the
        # one-partition result, where the later row wins.
        rows = [
            (0, 0, 1.0), (1, 0, 5.0), (1, 1, 2.0), (1, 2, 3.0),
            (1, 0, -0.0), (1, 3, 4.0), (1, 1, 0.0), (2, 3, 6.0),
            (2, 3, 7.0), (4, 2, 8.0), (4, 0, -1.0),
        ]
        data = {
            "time_step": np.array([r[0] for r in rows]),
            "cell_id": np.array([r[1] for r in rows]),
            "count": np.array([r[2] for r in rows]),
        }
        spec = SpatiotemporalSpec(partitions_x=2, partitions_y=2)

        def converted(parallelism):
            df = Session(default_parallelism=parallelism).create_dataframe(data)
            batches = DFToTorchConverter(spec).convert(df, batch_size=2)
            return [(x.numpy().tobytes(), y.numpy().tobytes()) for x, y in batches]

        expected = converted(1)
        assert len(expected) == 2  # steps 0-4, 3 a zero frame -> four pairs
        assert converted(parts) == expected


class TestStepTimeline:
    """Frame t is step t, from step 0, as ``STManager.get_st_grid_array``
    lays the tensor out: an absent step is a zero frame, and a row
    before step 0 is dropped."""

    @staticmethod
    def _pairs(steps, parallelism=1, **spec):
        df = Session(default_parallelism=parallelism).create_dataframe(
            {
                "time_step": np.array(steps),
                "cell_id": np.zeros(len(steps), dtype=np.int64),
                "count": np.arange(1.0, len(steps) + 1),
            }
        )
        batches = DFToTorchConverter(
            SpatiotemporalSpec(partitions_x=1, partitions_y=1, **spec)
        ).convert(df, batch_size=2)
        return [
            (float(x), float(y))
            for xs, ys in batches
            for x, y in zip(xs.numpy().ravel(), ys.numpy().ravel())
        ]

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_absent_step_is_a_zero_frame(self, parallelism):
        # Steps {0, 2, 3}: (f0, 0), (0, f2), (f2, f3), not (f0, f2).
        assert self._pairs([0, 2, 3], parallelism, lead_time=1) == [
            (1.0, 0.0), (0.0, 2.0), (2.0, 3.0),
        ]

    def test_leading_absent_steps_are_zero_frames(self):
        assert self._pairs([2, 3], lead_time=1) == [
            (0.0, 0.0), (0.0, 1.0), (1.0, 2.0),
        ]
        assert self._pairs([2, 3], lead_time=2) == [(0.0, 1.0), (0.0, 2.0)]

    def test_rows_before_step_zero_are_dropped(self):
        assert self._pairs([-3, -1, 1, 2]) == [(0.0, 3.0), (3.0, 4.0)]

    def test_too_short_a_timeline_raises(self):
        with pytest.raises(ValueError, match="needs 4 timesteps, which exceeds the 3"):
            self._pairs([0, 2], window=WindowPlan.sequential(2, 2))

    def test_lead_time_is_shorthand_for_a_basic_window(self):
        spec = SpatiotemporalSpec(partitions_x=1, partitions_y=1, lead_time=2)
        assert spec.window == WindowPlan.basic(2)
        with pytest.raises(ValueError, match="not both"):
            SpatiotemporalSpec(
                partitions_x=1, partitions_y=1, lead_time=2,
                window=WindowPlan.basic(2),
            )

    @pytest.mark.parametrize(
        "window", [WindowPlan.sequential(2, 1), WindowPlan.periodical(1, 1, 1, 2, 4)]
    )
    def test_transform_needs_the_basic_window(self, session, window):
        df = session.create_dataframe(
            [{"time_step": t, "cell_id": 0, "count": 1.0} for t in range(8)]
        )
        spec = SpatiotemporalSpec(partitions_x=1, partitions_y=1, window=window)
        with pytest.raises(ValueError, match="needs the basic window plan"):
            DFToTorchConverter(spec).convert(df, transform=lambda x: x)


class TestRowTransformer:
    def test_invalid_batch_size(self, session, rng):
        df = _tile_df(session, rng, n=2)
        with pytest.raises(ValueError):
            RowTransformer(df, batch_size=0)

    def test_unknown_spec_type(self):
        with pytest.raises(TypeError):
            DFFormatter(object()).format(None)
