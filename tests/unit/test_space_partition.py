"""SpacePartition: grid cells and coarsening."""

import numpy as np
import pytest

from repro.core.preprocessing.grid import SpacePartition
from repro.geometry import Envelope, Point


class TestGridCells:
    def test_cell_count_and_order(self):
        cells = SpacePartition.generate_grid_cells(Envelope(0, 4, 0, 2), 2, 2)
        assert len(cells) == 4
        # Flat id 0 covers the lower-left cell.
        assert cells[0].contains_point(Point(0.5, 0.5))
        assert cells[1].contains_point(Point(2.5, 0.5))
        assert cells[2].contains_point(Point(0.5, 1.5))

    def test_cells_tile_the_envelope(self, rng):
        env = Envelope(0, 10, 0, 10)
        cells = SpacePartition.generate_grid_cells(env, 5, 5)
        for _ in range(100):
            p = Point(rng.uniform(0.01, 9.99), rng.uniform(0.01, 9.99))
            hits = sum(1 for c in cells if c.contains_point(p))
            assert hits == 1

class TestCoarsen:
    def test_sum_preserved(self, rng):
        tensor = rng.random((5, 8, 12, 2)).astype(np.float32)
        out = SpacePartition.coarsen_st_tensor(tensor, 2, 3)
        assert out.shape == (5, 4, 4, 2)
        np.testing.assert_allclose(out.sum(), tensor.sum(), rtol=1e-5)

    def test_block_values(self):
        tensor = np.ones((1, 4, 4, 1), dtype=np.float32)
        out = SpacePartition.coarsen_st_tensor(tensor, 2, 2)
        np.testing.assert_allclose(out, 4.0)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            SpacePartition.coarsen_st_tensor(np.ones((1, 5, 4, 1)), 2, 2)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            SpacePartition.coarsen_st_tensor(np.ones((1, 4, 4, 1)), 0, 2)
