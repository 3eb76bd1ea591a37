"""Custom dataset classes (paper Section III-A1) and the dataset
registry's consistency with the concrete classes."""

import numpy as np
import pytest

from repro.core.datasets.grid import CustomGridDataset
from repro.core.datasets.raster import (
    SAT4,
    SAT6,
    Cloud38,
    CustomRasterDataset,
    EuroSAT,
    SlumDetection,
)
from repro.core.datasets.registry import DATASET_REGISTRY
from repro.engine import Session


class TestCustomGridDataset:
    def test_from_memory(self, rng):
        tensor = rng.random((30, 4, 4, 1)).astype(np.float32)
        ds = CustomGridDataset(tensor)
        assert len(ds) == 29
        assert ds.num_channels == 1

    def test_from_st_dataframe(self):
        session = Session(default_parallelism=2)
        st_df = session.create_dataframe(
            [
                {"time_step": 0, "cell_id": 0, "count": 2.0},
                {"time_step": 1, "cell_id": 1, "count": 5.0},
            ]
        )
        ds = CustomGridDataset.from_st_dataframe(
            st_df, partitions_x=2, partitions_y=1, normalize=False
        )
        assert ds.num_timesteps == 2
        assert ds.frames[0, 0, 0, 0] == 2.0
        assert ds.frames[1, 0, 0, 1] == 5.0


class TestCustomRasterDataset:
    def test_from_memory(self, rng):
        images = rng.random((6, 3, 4, 4)).astype(np.float32)
        ds = CustomRasterDataset(images, np.arange(6))
        assert len(ds) == 6

class TestRegistryConsistency:
    """The catalog metadata must match the concrete classes."""

    CLASS_BY_NAME = {
        "SAT-6": SAT6,
        "SAT-4": SAT4,
        "EuroSAT": EuroSAT,
        "SlumDetection": SlumDetection,
        "38-Cloud": Cloud38,
    }

    @pytest.mark.parametrize("name", list(CLASS_BY_NAME))
    def test_raster_bands_and_classes(self, name):
        info = DATASET_REGISTRY[name]
        cls = self.CLASS_BY_NAME[name]
        assert cls.NUM_BANDS == info.num_bands
        if info.task == "classification":
            assert cls.NUM_CLASSES == info.num_classes

    def test_grid_shapes_match_classes(self):
        from repro.core.datasets.grid import (
            BikeNYCDeepSTN,
            BikeNYCSTDN,
            TaxiBJ21,
            TaxiNYCSTDN,
        )

        assert BikeNYCDeepSTN.GRID_SHAPE == DATASET_REGISTRY[
            "BikeNYC-DeepSTN"
        ].grid_shape
        assert TaxiNYCSTDN.GRID_SHAPE == DATASET_REGISTRY["TaxiNYC-STDN"].grid_shape
        assert BikeNYCSTDN.GRID_SHAPE == DATASET_REGISTRY["BikeNYC-STDN"].grid_shape
        assert TaxiBJ21.GRID_SHAPE == DATASET_REGISTRY["TaxiBJ21"].grid_shape

    def test_registry_covers_both_categories(self):
        from repro.core.datasets.registry import grid_catalog, raster_catalog

        assert len(grid_catalog()) == 10
        assert len(raster_catalog()) == 5
