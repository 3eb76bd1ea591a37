"""Structural checks of the synthetic data generators.

The reproduction's validity rests on the generators planting the
structures whose exploitation the paper measures (DESIGN.md §2).
These tests verify each planted structure statistically.
"""

import numpy as np
import pytest

from repro.core.datasets.synth import (
    generate_classification_rasters,
    generate_grid_tensor,
    generate_segmentation_rasters,
    generate_traffic_tensor,
    generate_trip_records,
    generate_weather_tensor,
)
from repro.geometry import Envelope


def _lag_correlation(series: np.ndarray, lag: int) -> float:
    a = series[:-lag] - series[:-lag].mean()
    b = series[lag:] - series[lag:].mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    return float((a * b).sum() / denom) if denom > 0 else 0.0


class TestTrafficTensor:
    @pytest.fixture(scope="class")
    def tensor(self):
        return generate_traffic_tensor(24 * 28, 8, 8, 1, steps_per_day=24, seed=5)

    def test_shape_and_nonneg(self, tensor):
        assert tensor.shape == (24 * 28, 8, 8, 1)
        assert tensor.min() >= 0

    def test_daily_periodicity_dominates(self, tensor):
        """Correlation at lag 24h exceeds mid-range lags — the signal
        period features exploit."""
        series = tensor[..., 0].reshape(len(tensor), -1).mean(axis=1)
        daily = _lag_correlation(series, 24)
        off_cycle = _lag_correlation(series, 7)
        assert daily > off_cycle + 0.2

    def test_weekend_effect(self, tensor):
        """Weekly trend: weekend levels differ from weekday levels."""
        series = tensor[..., 0].reshape(len(tensor), -1).mean(axis=1)
        day_index = np.arange(len(series)) // 24 % 7
        weekday = series[day_index < 5].mean()
        weekend = series[day_index >= 5].mean()
        assert weekday > weekend * 1.05

    def test_spatial_heterogeneity(self, tensor):
        """Cells have distinct daily profiles (per-cell structure the
        context maps / per-pixel fusion weights must learn)."""
        profiles = tensor[..., 0].reshape(-1, 24, 64).mean(axis=0)  # (24, cells)
        peak_hours = profiles.argmax(axis=0)
        assert len(np.unique(peak_hours)) > 3

    def test_determinism(self):
        a = generate_traffic_tensor(48, 4, 4, 1, seed=9)
        b = generate_traffic_tensor(48, 4, 4, 1, seed=9)
        np.testing.assert_allclose(a, b)
        c = generate_traffic_tensor(48, 4, 4, 1, seed=10)
        assert not np.allclose(a, c)


class TestWeatherTensor:
    @pytest.fixture(scope="class")
    def tensor(self):
        return generate_weather_tensor(24 * 14, 8, 16, 1, seed=7)

    def test_strong_persistence(self, tensor):
        """Advection/AR-dominated: lag-1 autocorrelation is high — the
        signal sequence models exploit."""
        series = tensor[..., 0].reshape(len(tensor), -1)
        # Per-cell lag-1 correlation, averaged.
        lag1 = np.mean(
            [_lag_correlation(series[:, i], 1) for i in range(0, 128, 8)]
        )
        assert lag1 > 0.8

    def test_weaker_periodicity_than_traffic(self, tensor):
        traffic = generate_traffic_tensor(24 * 14, 8, 16, 1, seed=7)
        w_series = tensor[..., 0].reshape(len(tensor), -1).mean(axis=1)
        t_series = traffic[..., 0].reshape(len(traffic), -1).mean(axis=1)
        assert _lag_correlation(t_series, 24) > _lag_correlation(w_series, 24)

    def test_signed_values_allowed(self, tensor):
        # Weather anomalies go negative (no count floor).
        assert tensor.min() < 0


class TestGridTensorKnobs:
    def test_global_factor_adds_long_range_correlation(self):
        """The citywide latent factor correlates *distant* cells; on a
        grid large enough that the local AR field decorrelates with
        distance, adding it raises corner-to-corner correlation."""

        def corner_corr(tensor):
            cells = tensor[..., 0]
            a = cells[:, 0, 0] - cells[:, 0, 0].mean()
            b = cells[:, -1, -1] - cells[:, -1, -1].mean()
            denom = np.sqrt((a * a).sum() * (b * b).sum())
            return abs(float((a * b).sum() / denom))

        base = generate_grid_tensor(
            300, 16, 16, 1, seed=3, daily_amp=0.0, ar_amp=0.3,
            global_amp=0.0, noise=0.05, nonneg=False,
        )
        with_global = generate_grid_tensor(
            300, 16, 16, 1, seed=3, daily_amp=0.0, ar_amp=0.3,
            global_amp=3.0, global_coeff=0.9, noise=0.05, nonneg=False,
        )
        assert corner_corr(with_global) > corner_corr(base) + 0.1

    def test_channels_independent(self):
        tensor = generate_grid_tensor(100, 4, 4, 2, seed=1)
        assert not np.allclose(tensor[..., 0], tensor[..., 1])


class TestTripRecords:
    @pytest.fixture(scope="class")
    def records(self):
        return generate_trip_records(
            20_000, Envelope(0, 10, 0, 10), num_steps=96,
            step_seconds=1800.0, seed=2,
        )

    def test_columns_and_lengths(self, records):
        assert set(records) == {
            "lat", "lon", "dropoff_lat", "dropoff_lon",
            "pickup_time", "passenger_count",
        }
        assert all(len(v) == 20_000 for v in records.values())

    def test_times_within_horizon(self, records):
        assert records["pickup_time"].min() >= 0
        assert records["pickup_time"].max() <= 96 * 1800.0

    def test_daily_arrival_cycle(self, records):
        steps = (records["pickup_time"] / 1800.0).astype(int) % 48
        counts = np.bincount(steps, minlength=48)
        assert counts.max() > 3 * max(counts.min(), 1)

    def test_hotspot_clustering(self, records):
        """Points concentrate: the densest decile of a 10x10 grid holds
        far more than 10% of points."""
        xi = np.clip(records["lon"].astype(int), 0, 9)
        yi = np.clip(records["lat"].astype(int), 0, 9)
        counts = np.bincount(yi * 10 + xi, minlength=100)
        top_decile = np.sort(counts)[-10:].sum()
        assert top_decile > 0.35 * counts.sum()

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"step_seconds": 0.0}, "step_seconds"),
            ({"step_seconds": -1800.0}, "step_seconds"),
            ({"step_seconds": float("nan")}, "step_seconds"),
            ({"num_steps": 0}, "num_steps"),
            ({"num_steps": -3}, "num_steps"),
            ({"num_records": -1}, "num_records"),
            ({"hotspot_count": 0}, "hotspot_count"),
        ],
    )
    def test_bad_arguments_are_named(self, kwargs, name):
        args = {"num_records": 10, "num_steps": 4, **kwargs}
        with pytest.raises(ValueError, match=name):
            generate_trip_records(envelope=Envelope(0, 1, 0, 1), **args)

    def test_no_records(self):
        records = generate_trip_records(0, Envelope(0, 1, 0, 1), num_steps=4)
        assert all(len(v) == 0 for v in records.values())


class TestClassificationRasters:
    def test_between_class_separation(self):
        images, labels = generate_classification_rasters(
            120, num_classes=4, bands=4, height=12, width=12, seed=4
        )
        means = images.mean(axis=(2, 3))  # (N, bands)
        class_means = np.stack(
            [means[labels == k].mean(axis=0) for k in range(4)]
        )
        within = np.mean(
            [means[labels == k].std(axis=0).mean() for k in range(4)]
        )
        between = class_means.std(axis=0).mean()
        assert between > 0.5 * within  # class signal present

    def test_texture_signal(self):
        """Class-dependent correlation length -> GLCM contrast differs
        across classes."""
        from repro.core.preprocessing.raster.glcm import glcm_features

        images, labels = generate_classification_rasters(
            80, num_classes=2, bands=1, height=16, width=16, seed=6
        )
        contrast = np.array(
            [glcm_features(img[0])["contrast"] for img in images]
        )
        c0 = contrast[labels == 0].mean()
        c1 = contrast[labels == 1].mean()
        assert abs(c0 - c1) > 0.1 * max(c0, c1)

    def test_unit_range(self):
        images, _ = generate_classification_rasters(10, 3, 4, 8, 8, seed=1)
        assert images.min() >= 0 and images.max() <= 1


class TestSegmentationRasters:
    def test_masks_binary_and_fractional(self):
        images, masks = generate_segmentation_rasters(
            20, bands=4, height=24, width=24, seed=8, cloud_fraction=0.3
        )
        assert set(np.unique(masks)).issubset({0, 1})
        fraction = masks.mean()
        assert 0.2 < fraction < 0.4

    def test_clouds_brighter_everywhere(self):
        images, masks = generate_segmentation_rasters(
            10, bands=4, height=24, width=24, seed=9
        )
        for img, mask in zip(images, masks):
            assert img[:, mask == 1].mean() > img[:, mask == 0].mean()

    def test_blobs_are_contiguous(self):
        """Cloud masks are correlated blobs, not salt-and-pepper: a
        cloud pixel's neighbours are mostly cloud."""
        _, masks = generate_segmentation_rasters(
            5, bands=1, height=32, width=32, seed=10
        )
        mask = masks[0]
        cloud = np.argwhere(mask == 1)
        agree = 0
        total = 0
        for y, x in cloud:
            if 0 < y < 31 and 0 < x < 31:
                neighbours = mask[y - 1 : y + 2, x - 1 : x + 2]
                agree += neighbours.sum() - 1
                total += 8
        assert agree / total > 0.7
