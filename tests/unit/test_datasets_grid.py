"""Grid datasets: representations, normalization, caching."""

import re

import numpy as np
import pytest

from repro.core.datasets import WindowPlan
from repro.core.datasets.base import GridDataset
from repro.core.datasets.grid import (
    BikeNYCDeepSTN,
    TaxiBJ21,
    Temperature,
    YellowTripNYC,
)
from repro.core.datasets.synth import generate_traffic_tensor
from repro.data.dataloader import default_collate


@pytest.fixture
def tensor(rng):
    return rng.random((120, 4, 6, 2)).astype(np.float32) * 10


class TestBasicRepresentation:
    def test_item_alignment(self, tensor):
        ds = GridDataset(tensor, normalize=False).set_basic_representation(lead_time=3)
        x, y = ds[5]
        np.testing.assert_allclose(x, tensor[5].transpose(2, 0, 1))
        np.testing.assert_allclose(y, tensor[8].transpose(2, 0, 1))

    def test_length(self, tensor):
        ds = GridDataset(tensor).set_basic_representation(lead_time=3)
        assert len(ds) == 117

    def test_negative_index(self, tensor):
        ds = GridDataset(tensor, normalize=False)
        x_last, _ = ds[-1]
        np.testing.assert_allclose(x_last, tensor[118].transpose(2, 0, 1))

    def test_out_of_range(self, tensor):
        ds = GridDataset(tensor)
        with pytest.raises(IndexError):
            ds[len(ds)]

    def test_switch_back_to_basic(self, tensor):
        ds = GridDataset(tensor)
        ds.set_sequential_representation(4, 2)
        ds.set_basic_representation(lead_time=2)
        assert len(ds) == 118


class TestSequentialRepresentation:
    def test_shapes(self, tensor):
        ds = GridDataset(tensor)
        ds.set_sequential_representation(history_length=6, prediction_length=2)
        x, y = ds[0]
        assert x.shape == (6, 2, 4, 6)
        assert y.shape == (2, 2, 4, 6)

    def test_window_alignment(self, tensor):
        ds = GridDataset(tensor, normalize=False)
        ds.set_sequential_representation(3, 1)
        x, y = ds[10]
        np.testing.assert_allclose(x[0], tensor[10].transpose(2, 0, 1))
        np.testing.assert_allclose(y[0], tensor[13].transpose(2, 0, 1))

    def test_length(self, tensor):
        ds = GridDataset(tensor)
        ds.set_sequential_representation(6, 2)
        assert len(ds) == 120 - 6 - 2 + 1

    def test_too_long_window_rejected(self, tensor):
        ds = GridDataset(tensor)
        with pytest.raises(ValueError, match="exceeds"):
            ds.set_sequential_representation(100, 30)


class TestPeriodicalRepresentation:
    def test_keys_and_shapes(self, tensor):
        ds = GridDataset(tensor, steps_per_period=24, steps_per_trend=48)
        ds.set_periodical_representation(3, 2, 1)
        item = ds[0]
        assert item["x_closeness"].shape == (6, 4, 6)  # 3 frames x 2 channels
        assert item["x_period"].shape == (4, 4, 6)
        assert item["x_trend"].shape == (2, 4, 6)
        assert item["y_data"].shape == (2, 4, 6)

    def test_frame_alignment(self, tensor):
        ds = GridDataset(tensor, steps_per_period=24, steps_per_trend=48,
                         normalize=False)
        ds.set_periodical_representation(2, 1, 1)
        target = 48  # offset = max(2, 24, 48)
        item = ds[0]
        frames = tensor.transpose(0, 3, 1, 2)
        np.testing.assert_allclose(
            item["x_closeness"],
            frames[target - 2 : target].reshape(-1, 4, 6),
        )
        np.testing.assert_allclose(
            item["x_period"], frames[target - 24].reshape(-1, 4, 6)
        )
        np.testing.assert_allclose(
            item["x_trend"], frames[target - 48].reshape(-1, 4, 6)
        )
        np.testing.assert_allclose(item["y_data"], frames[target])
        assert item["t_index"] == target

    def test_length(self, tensor):
        ds = GridDataset(tensor, steps_per_period=24, steps_per_trend=48)
        ds.set_periodical_representation(3, 2, 1)
        assert len(ds) == 120 - 48

    def test_insufficient_history_rejected(self, tensor):
        ds = GridDataset(tensor, steps_per_period=24, steps_per_trend=24 * 7)
        with pytest.raises(ValueError, match="timesteps"):
            ds.set_periodical_representation(3, 2, 1)


class TestWindowPlan:
    def test_listing_calls_build_the_plan_set_window_takes(self, tensor):
        ds = GridDataset(tensor, steps_per_period=24, steps_per_trend=48)
        assert ds.window == WindowPlan.basic(1)
        for call, plan in (
            (lambda: ds.set_basic_representation(lead_time=3), WindowPlan.basic(3)),
            (lambda: ds.set_sequential_representation(6, 2), WindowPlan.sequential(6, 2)),
            (lambda: ds.set_periodical_representation(3, 2, 1),
             WindowPlan.periodical(3, 2, 1, 24, 48)),
        ):
            assert call().window == plan
            other = GridDataset(tensor, steps_per_period=24, steps_per_trend=48)
            assert len(other.set_window(plan)) == len(ds) == 120 - plan.span

    @pytest.mark.parametrize("call", [
        lambda ds: ds.set_basic_representation(lead_time=120),
        lambda ds: ds.set_sequential_representation(100, 21),
        lambda ds: ds.set_window(WindowPlan.periodical(1, 1, 1, 1, 120)),
    ])
    def test_a_plan_longer_than_the_tensor_names_both_counts(self, tensor, call):
        ds = GridDataset(tensor)
        with pytest.raises(ValueError, match="needs 121 timesteps, which exceeds the 120"):
            call(ds)
        assert ds.window == WindowPlan.basic(1)

    def test_vector_item_stacks_the_items(self, tensor):
        ds = GridDataset(tensor, steps_per_period=24, steps_per_trend=48)
        ds.set_periodical_representation(3, 2, 1)
        stacked = ds.window.item(ds.frames, np.arange(2, 7))
        for key, value in default_collate([ds[i] for i in range(2, 7)]).items():
            assert stacked[key].dtype == value.dtype
            np.testing.assert_array_equal(stacked[key], value)


class TestNormalization:
    def test_normalized_range(self, tensor):
        ds = GridDataset(tensor, normalize=True)
        assert ds.frames.min() >= 0.0 and ds.frames.max() <= 1.0

    def test_denormalize_roundtrip(self, tensor):
        ds = GridDataset(tensor, normalize=True)
        x, _ = ds[0]
        np.testing.assert_allclose(
            x * ds.scale + tensor.min(), tensor[0].transpose(2, 0, 1), rtol=1e-5
        )

    def test_scale(self, tensor):
        ds = GridDataset(tensor, normalize=True)
        assert ds.scale == pytest.approx(tensor.max() - tensor.min(), rel=1e-5)
        ds2 = GridDataset(tensor, normalize=False)
        assert ds2.scale == 1.0

    def test_transform_applied(self, tensor):
        calls = []

        def spy(item):
            calls.append(1)
            return item

        ds = GridDataset(tensor, transform=spy)
        ds[0]
        assert calls


class TestValidation:
    def test_rank_check(self):
        with pytest.raises(ValueError, match="T, H, W, C"):
            GridDataset(np.zeros((10, 4, 6)))

    @pytest.mark.parametrize("shape", [(0, 4, 6, 2), (10, 0, 6, 2)])
    def test_empty_tensor_names_its_shape(self, shape):
        # A grid of rows all before step 0 has no steps; the min/max
        # normalization must not be what reports it.
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            GridDataset(np.zeros(shape, dtype=np.float32))

    def test_lead_time_check(self, tensor):
        with pytest.raises(ValueError):
            GridDataset(tensor).set_basic_representation(lead_time=0)

    @pytest.mark.parametrize("field", ["steps_per_period", "steps_per_trend"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_period_and_trend_steps_must_be_positive(self, field, value):
        # 0 used to feed the target frame as the "period" input, and a
        # negative value frames from after the target.
        ramp = np.arange(40, dtype=np.float32).reshape(40, 1, 1, 1)
        with pytest.raises(ValueError, match=field):
            GridDataset(ramp, normalize=False, **{field: value})


class TestFileBackedDatasets:
    def test_generation_and_cache(self, dataset_root):
        ds1 = BikeNYCDeepSTN(dataset_root, num_steps=80)
        ds2 = BikeNYCDeepSTN(dataset_root, num_steps=80)
        np.testing.assert_allclose(ds1.frames, ds2.frames)
        assert ds1.grid_height == 21 and ds1.grid_width == 12

    def test_config_change_regenerates(self, tmp_path):
        ds1 = TaxiBJ21(str(tmp_path), num_steps=60, grid_shape=(8, 8))
        ds2 = TaxiBJ21(str(tmp_path), num_steps=70, grid_shape=(8, 8))
        assert ds1.num_timesteps == 60
        assert ds2.num_timesteps == 70

    def test_download_false_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            BikeNYCDeepSTN(str(tmp_path), num_steps=50, download=False)

    def test_download_false_cached(self, tmp_path):
        BikeNYCDeepSTN(str(tmp_path), num_steps=50)
        ds = BikeNYCDeepSTN(str(tmp_path), num_steps=50, download=False)
        assert ds.num_timesteps == 50

    def test_weather_grid_shape(self, dataset_root):
        ds = Temperature(dataset_root, num_steps=60, grid_shape=(8, 16))
        assert (ds.grid_height, ds.grid_width) == (8, 16)
        assert ds.num_channels == 1

    def test_distinct_seeds_give_distinct_data(self, dataset_root):
        from repro.core.datasets.grid import BikeNYCSTDN, TaxiNYCSTDN

        a = TaxiNYCSTDN(dataset_root, num_steps=60)
        b = BikeNYCSTDN(dataset_root, num_steps=60)
        assert not np.allclose(a.frames, b.frames)

    def test_yellowtrip_from_tensor(self):
        tensor = generate_traffic_tensor(60, 16, 12, 2, seed=0)
        ds = YellowTripNYC.from_st_tensor(tensor)
        assert ds.num_timesteps == 60
        assert ds.steps_per_period == 48

    def test_nonnegative_counts(self, dataset_root):
        ds = BikeNYCDeepSTN(dataset_root, num_steps=80, normalize=False)
        assert ds.frames.min() >= 0.0
