"""Traffic / flow prediction datasets (paper Table II).

Grid shapes and interval lengths match the paper; the number of
timesteps is a scaled-down default (overridable) so experiments fit a
single CPU core.  Data comes from the deterministic traffic generator
(see :mod:`repro.core.datasets.synth`): daily + weekly periodicity
dominating a smooth AR component, like real urban flow.
"""

from __future__ import annotations

from repro.core.datasets.base import GridDataset
from repro.core.datasets.grid.file_backed import FileBackedGridDataset
from repro.core.datasets.synth import generate_traffic_tensor


class _TrafficDataset(FileBackedGridDataset):
    GRID_SHAPE = (8, 8)
    CHANNELS = 2
    STEPS_PER_DAY = 24
    SEED = 0

    def __init__(
        self,
        root: str,
        num_steps: int = 1344,  # 8 weeks at hourly resolution
        grid_shape: tuple | None = None,
        **options,
    ):
        """``options``: ``normalize``, ``transform``, ``download``."""
        height, width = grid_shape or self.GRID_SHAPE
        super().__init__(
            root,
            generator=generate_traffic_tensor,
            generator_config={
                "num_steps": num_steps,
                "height": height,
                "width": width,
                "channels": self.CHANNELS,
                "steps_per_day": self.STEPS_PER_DAY,
                "seed": self.SEED,
            },
            steps_per_period=self.STEPS_PER_DAY,
            steps_per_trend=self.STEPS_PER_DAY * 7,
            **options,
        )


class BikeNYCDeepSTN(_TrafficDataset):
    """Bike flow over a 21x12 hourly grid (BikeNYC-DeepSTN [27])."""

    DATASET_NAME = "bike_nyc_deepstn"
    GRID_SHAPE = (21, 12)
    CHANNELS = 2  # inflow, outflow
    STEPS_PER_DAY = 24
    SEED = 101


class TaxiNYCSTDN(_TrafficDataset):
    """Taxi flow and volume over a 10x20 half-hourly grid
    (TaxiNYC-STDN [1]): 4 channels = in/out flow + start/end volume."""

    DATASET_NAME = "taxi_nyc_stdn"
    GRID_SHAPE = (10, 20)
    CHANNELS = 4
    STEPS_PER_DAY = 48
    SEED = 102


class BikeNYCSTDN(_TrafficDataset):
    """Bike flow and volume over a 10x20 half-hourly grid
    (BikeNYC-STDN [1]): 4 channels = in/out flow + start/end volume."""

    DATASET_NAME = "bike_nyc_stdn"
    GRID_SHAPE = (10, 20)
    CHANNELS = 4
    STEPS_PER_DAY = 48
    SEED = 103


class TaxiBJ21(_TrafficDataset):
    """Taxi flow over a 32x32 half-hourly grid (TaxiBJ21 [44])."""

    DATASET_NAME = "taxibj21"
    GRID_SHAPE = (32, 32)
    CHANNELS = 2
    STEPS_PER_DAY = 48
    SEED = 104


class YellowTripNYC(_TrafficDataset):
    """Taxi pickup/dropoff counts over a 12x16 half-hourly grid —
    the dataset the paper releases, built with the preprocessing
    module.  :meth:`from_st_tensor` constructs it directly from a
    tensor produced by ``STManager`` (the end-to-end path)."""

    DATASET_NAME = "yellowtrip_nyc"
    GRID_SHAPE = (16, 12)  # (H, W) = (partitions_y, partitions_x)
    CHANNELS = 2  # pickups, dropoffs
    STEPS_PER_DAY = 48
    SEED = 105

    @classmethod
    def from_st_tensor(cls, tensor, **options) -> GridDataset:
        """Wrap a (T, H, W, C) tensor prepared by the preprocessing
        module as a YellowTrip-NYC dataset, skipping the file cache;
        ``options``: ``normalize``, ``transform``."""
        return GridDataset(tensor, cls.STEPS_PER_DAY, cls.STEPS_PER_DAY * 7, **options)
