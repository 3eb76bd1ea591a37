"""Fast unit-level checks of the Figure 9 mechanism (the full sweep
runs in ``python -m repro.experiments.run fig9``)."""

import numpy as np

from repro.experiments.fig9 import BAND_COUNTS, GRID_SIZES, epoch_arm
from repro.experiments.timing import K, interleaved, median_ratio
from repro.tensor import Tensor, use_backend
from repro.tensor.ops_conv import conv2d


class TestBackendMechanism:
    def test_sweep_constants_match_paper(self):
        assert BAND_COUNTS == (3, 5, 8, 10, 13)
        assert GRID_SIZES == (28, 32, 64)

    def test_backends_numerically_identical_on_satcnn_input(self, rng):
        x = Tensor(rng.random((2, 3, 8, 8), dtype=np.float32))
        w = Tensor(rng.random((4, 3, 3, 3), dtype=np.float32))
        with use_backend("accelerated"):
            fast = conv2d(x, w, padding=1).data
        with use_backend("naive"):
            slow = conv2d(x, w, padding=1).data
        np.testing.assert_allclose(fast, slow, rtol=1e-5, atol=1e-6)

    def test_epoch_time_returns_positive(self):
        timing = interleaved({
            "a": epoch_arm(bands=3, grid=8, backend="accelerated",
                           num_images=8, batch_size=4),
        })
        assert len(timing["seconds"]["a"]) == K
        assert min(timing["seconds"]["a"]) > 0

    def test_naive_slower_at_tiny_scale(self):
        timing = interleaved({
            backend: epoch_arm(3, 16, backend, num_images=16, batch_size=8)
            for backend in ("naive", "accelerated")
        })
        assert median_ratio(timing, "naive", "accelerated") > 1
