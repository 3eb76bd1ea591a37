"""WeatherBench-style forecasting datasets (paper Section V-A2).

The paper ships five hourly 2018 reanalysis variables on a 32x64
(5.625 deg x 2.8125 deg) grid.  Grid shape defaults to a scaled 16x32
(overridable up to the paper's 32x64); fields come from the weather
generator: advecting, strongly autocorrelated smooth fields with a
mild diurnal cycle.
"""

from __future__ import annotations

from repro.core.datasets.grid.file_backed import FileBackedGridDataset
from repro.core.datasets.synth import generate_weather_tensor


class _WeatherDataset(FileBackedGridDataset):
    SEED = 0

    def __init__(
        self,
        root: str,
        num_steps: int = 1344,  # 8 weeks, hourly
        grid_shape: tuple = (16, 32),
        **options,
    ):
        """``options``: ``normalize``, ``transform``, ``download``."""
        height, width = grid_shape
        super().__init__(
            root,
            generator=generate_weather_tensor,
            generator_config={
                "num_steps": num_steps,
                "height": height,
                "width": width,
                "channels": 1,
                "steps_per_day": 24,
                "seed": self.SEED,
            },
            steps_per_period=24,
            steps_per_trend=24 * 7,
            **options,
        )


class Temperature(_WeatherDataset):
    """2m temperature."""

    DATASET_NAME = "weather_temperature"
    SEED = 201


class TotalPrecipitation(_WeatherDataset):
    """Total precipitation."""

    DATASET_NAME = "weather_precipitation"
    SEED = 202


class TotalCloudCover(_WeatherDataset):
    """Total cloud cover."""

    DATASET_NAME = "weather_cloud_cover"
    SEED = 203


class Geopotential(_WeatherDataset):
    """Geopotential at 500 hPa."""

    DATASET_NAME = "weather_geopotential"
    SEED = 204


class SolarRadiation(_WeatherDataset):
    """Total incident solar radiation."""

    DATASET_NAME = "weather_solar_radiation"
    SEED = 205
