"""Utilities: rng derivation, validation, baseline frame."""

import numpy as np
import pytest

from repro.baselines import EagerGeoFrame
from repro.geometry import Envelope, UniformGrid
from repro.utils.memory import MemoryBudgetExceeded, MemoryMeter
from repro.utils.rng import default_rng, derive_seed
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(42, "model") == derive_seed(42, "model")

    def test_derive_seed_label_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_derive_seed_parent_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_default_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert default_rng(gen) is gen

    def test_default_rng_reproducible(self):
        a = default_rng(7).random(5)
        b = default_rng(7).random(5)
        np.testing.assert_allclose(a, b)

    def test_label_changes_stream(self):
        a = default_rng(7, label="x").random(5)
        b = default_rng(7, label="y").random(5)
        assert not np.allclose(a, b)

    def test_global_seed(self):
        a = default_rng(None).random(3)
        b = default_rng(0).random(3)
        np.testing.assert_allclose(a, b)


class TestValidation:
    def test_check_positive(self):
        assert check_positive(2, "x") == 2
        with pytest.raises(ValueError, match="x"):
            check_positive(0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0
        with pytest.raises(ValueError):
            check_non_negative(-1, "x")

    def test_check_in_range(self):
        assert check_in_range(0.5, 0, 1, "p") == 0.5
        with pytest.raises(ValueError):
            check_in_range(2, 0, 1, "p")


class TestEagerGeoFrame:
    def _records(self, rng, n=300):
        return {
            "lat": rng.uniform(0, 4, n),
            "lon": rng.uniform(0, 8, n),
            "t": rng.uniform(0, 1200, n),
        }

    def test_column_length_check(self):
        with pytest.raises(ValueError):
            EagerGeoFrame({"a": np.zeros(2), "b": np.zeros(3)})

    def test_geometry_memory_charged(self, rng):
        frame = EagerGeoFrame(self._records(rng))
        before = frame.meter.current
        frame.add_geometry("lat", "lon")
        assert frame.meter.current > before

    def test_prepare_matches_engine(self, rng):
        """The eager baseline and the engine must produce the same
        tensor — Figure 8 compares cost, not semantics."""
        records = self._records(rng)
        grid = UniformGrid(Envelope(0, 8, 0, 4), 4, 2)
        frame = EagerGeoFrame(dict(records))
        tensor = frame.prepare_st_tensor(
            grid, "lat", "lon", "t", t0=0.0, step_seconds=600.0, num_steps=2
        )
        from repro.core.preprocessing.grid import STManager
        from repro.engine import Session

        session = Session(default_parallelism=3)
        df = session.create_dataframe(records)
        spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
        st = STManager.get_st_grid_dataframe(
            spatial, "point", 4, 2, "t", 600.0,
            envelope=grid.envelope, temporal_origin=0.0,
        )
        engine_tensor = STManager.get_st_grid_array(st, 4, 2, num_steps=2)
        np.testing.assert_allclose(tensor, engine_tensor[..., 0])

    def test_oom_under_cap(self, rng):
        records = self._records(rng, n=2000)
        meter = MemoryMeter(cap_bytes=50_000)
        with pytest.raises(MemoryBudgetExceeded):
            frame = EagerGeoFrame(records, meter=meter)
            frame.add_geometry("lat", "lon")

    def test_memory_grows_with_rows(self, rng):
        small = EagerGeoFrame(self._records(rng, 100))
        small.add_geometry("lat", "lon")
        large = EagerGeoFrame(self._records(rng, 1000))
        large.add_geometry("lat", "lon")
        assert large.meter.peak > 5 * small.meter.peak
