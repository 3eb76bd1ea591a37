"""Unit tests for the memory-aware autograd runtime: graph freeing,
the backward-scratch array pool, and the fused epilogues."""

import numpy as np
import pytest

from repro.nn.conv import Conv2d
from repro.tensor import Tensor, use_backend
from repro.tensor.ops_conv import conv2d
from repro.tensor.ops_fused import fused_linear
from repro.tensor.pool import ArrayPool


# ----------------------------------------------------------------------
# backward(free_graph=...)
# ----------------------------------------------------------------------
class TestFreeGraph:
    def _loss(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4) / 10,
                   requires_grad=True)
        w = Tensor(np.ones((2, 4), dtype=np.float32) / 4, requires_grad=True)
        h = fused_linear(x, w).tanh()
        return x, w, h, (h * h).sum()

    def test_gradients_match_retained_run(self):
        x1, w1, _, loss1 = self._loss()
        x2, w2, _, loss2 = self._loss()
        loss1.backward()
        loss2.backward(free_graph=True)
        assert np.array_equal(x1.grad, x2.grad)
        assert np.array_equal(w1.grad, w2.grad)

    def test_intermediates_are_released(self):
        x, w, h, loss = self._loss()
        loss.backward(free_graph=True)
        assert h.data is None and h.grad is None and h._freed
        # leaves keep both data and grad
        assert x.data is not None and x.grad is not None and not x._freed

    def test_double_backward_after_free_raises(self):
        _, _, _, loss = self._loss()
        loss.backward(free_graph=True)
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward(free_graph=True)

    def test_backward_through_freed_subgraph_raises(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        mid = x * 2.0
        first = (mid * mid).sum()
        second = mid.sum()
        first.backward(free_graph=True)
        with pytest.raises(RuntimeError, match="freed"):
            second.backward()

    def test_default_backward_retains(self):
        _, w, h, loss = self._loss()
        loss.backward()
        first = w.grad.copy()
        assert h.data is not None and not h._freed
        loss.backward()  # second pass stays legal on a retained graph
        assert not np.array_equal(w.grad, first)  # and it accumulated

    def test_freed_bytes_counter_advances(self):
        from repro import obs

        counter = obs.registry.counter("autograd.freed_bytes")
        before = counter.value
        _, _, _, loss = self._loss()
        loss.backward(free_graph=True)
        assert counter.value > before

    def test_convlstm_epoch_peak_is_below_the_retained_graph(self):
        # What Trainer saves by freeing: one ConvLSTM epoch's traced
        # peak (numpy buffers register with tracemalloc) with
        # free_graph=True against the same epoch with the graph kept,
        # and the parameters the two epochs leave are the same bits.
        import tracemalloc

        from repro.nn import functional as F
        from repro.nn.recurrent import ConvLSTM
        from repro.optim import Adam

        rng = np.random.default_rng(13)
        frames = [
            (
                Tensor(rng.normal(size=(4, 8, 2, 16, 16)).astype(np.float32)),
                Tensor(rng.normal(size=(4, 8, 4, 16, 16)).astype(np.float32)),
            )
            for _ in range(2)
        ]

        def epoch_peak(free_graph):
            model = ConvLSTM(2, [4], 3, rng=np.random.default_rng(0))
            opt = Adam(list(model.parameters()), lr=1e-3)
            tracemalloc.start()
            try:
                for x, y in frames:
                    opt.zero_grad()
                    F.mse_loss(model(x), y).backward(free_graph=free_graph)
                    opt.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, [p.data for p in model.parameters()]

        epoch_peak(True)  # warm the pool for both runs
        freed, freed_params = epoch_peak(True)
        kept, kept_params = epoch_peak(False)
        assert freed < kept
        for a, b in zip(freed_params, kept_params, strict=True):
            assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# ArrayPool
# ----------------------------------------------------------------------
class TestArrayPool:
    def test_reuse_round_trip(self):
        pool = ArrayPool()
        a = pool.acquire((4, 3))
        assert pool.stats()["misses"] == 1
        assert pool.release(a)
        b = pool.acquire((4, 3))
        assert b is a
        assert pool.stats()["hits"] == 1

    def test_acquire_zeroed_recycled_array(self):
        pool = ArrayPool()
        a = pool.acquire((5,))
        a[:] = 7.0
        pool.release(a)
        b = pool.acquire((5,), zero=True)
        assert b is a and not b.any()

    def test_rejects_views_and_noncontiguous(self):
        pool = ArrayPool()
        base = np.zeros((4, 4), dtype=np.float32)
        assert not pool.release(base[1:])          # view
        assert not pool.release(np.zeros((4, 4))[:, ::2].copy(order="F"))
        assert not pool.release(np.zeros(0, dtype=np.float32))  # empty
        assert pool.stats()["rejects"] == 3
        assert len(pool) == 0

    def test_bounded_by_bytes_and_per_key(self):
        pool = ArrayPool(max_bytes=200)
        a = pool.acquire((10,))          # 40 bytes
        b = pool.acquire((10,))          # two out at once: demand 2
        assert pool.release(a) and pool.release(b)
        assert not pool.release(np.zeros(10, dtype=np.float32))  # demand
        big = pool.acquire((50,))        # 200 bytes
        assert not pool.release(big)     # byte cap
        stats = pool.stats()
        assert (stats["arrays"], stats["bytes"]) == (2, 80)
        assert (stats["reject_per_key"], stats["reject_bytes"]) == (1, 1)
        assert stats["demand"] == {"(10,):<f4": 2, "(50,):<f4": 1}

    def test_reset(self):
        pool = ArrayPool()
        pool.release(pool.acquire((3,)))
        pool.reset()
        assert len(pool) == 0
        assert pool.stats() == {
            "arrays": 0, "bytes": 0, "hits": 0, "misses": 0, "rejects": 0,
            "hit_rate": 0.0, "reject_alias": 0, "reject_bytes": 0,
            "reject_per_key": 0, "high_water": {}, "high_water_max": 0,
            "demand": {},
        }

    def test_dtype_keyed(self):
        pool = ArrayPool()
        a = pool.acquire((4,), dtype=np.float64)
        pool.release(a)
        b = pool.acquire((4,), dtype=np.float32)
        assert b is not a and b.dtype == np.float32

    def test_training_step_recycles_gradients(self):
        """A freed backward returns its scatter buffers to the pool, so
        the next identical step acquires them back (hit counter moves)."""
        from repro.tensor.pool import default_pool

        pool = default_pool()

        def run():
            x = Tensor(np.ones((6, 6), dtype=np.float32), requires_grad=True)
            (x[0:3].sum() + x[3:6].sum()).backward(free_graph=True)

        run()  # seeds the pool with the freed (6, 6) scatter buffer
        hits_before = pool.hits
        run()
        assert pool.hits > hits_before


# ----------------------------------------------------------------------
# __getitem__ backward: basic vs fancy indexing
# ----------------------------------------------------------------------
class TestGetitemBackward:
    def test_basic_slice_grad(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4),
                   requires_grad=True)
        x[1:, ::2].sum().backward()
        expected = np.zeros((3, 4), dtype=np.float32)
        expected[1:, ::2] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_int_index_grad(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        (x[2] * 2.0).sum().backward()
        expected = np.zeros((4, 3), dtype=np.float32)
        expected[2] = 2.0
        assert np.array_equal(x.grad, expected)

    def test_fancy_repeated_indices_accumulate(self):
        # np.add.at semantics: the same source element hit twice must
        # receive both contributions.
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        assert np.array_equal(
            x.grad, np.array([2.0, 0.0, 1.0, 0.0], dtype=np.float32)
        )

    def test_boolean_mask_grad(self):
        x = Tensor(np.arange(5, dtype=np.float32), requires_grad=True)
        mask = np.array([True, False, True, False, True])
        x[mask].sum().backward()
        assert np.array_equal(
            x.grad, mask.astype(np.float32)
        )


# ----------------------------------------------------------------------
# conv2d fused bias+ReLU epilogue
# ----------------------------------------------------------------------
class TestConvReluEpilogue:
    @pytest.mark.parametrize("backend", ["naive", "accelerated"])
    def test_bitwise_matches_separate_relu(self, backend):
        with use_backend(backend):
            rng = np.random.default_rng(0)
            x1 = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32),
                        requires_grad=True)
            w1 = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                        requires_grad=True)
            b1 = Tensor(rng.standard_normal(4).astype(np.float32),
                        requires_grad=True)
            x2 = Tensor(x1.data.copy(), requires_grad=True)
            w2 = Tensor(w1.data.copy(), requires_grad=True)
            b2 = Tensor(b1.data.copy(), requires_grad=True)
            ref = conv2d(x1, w1, b1, padding=1).relu()
            fused = conv2d(x2, w2, b2, padding=1, activation="relu")
            assert np.array_equal(ref.data, fused.data)
            (ref * ref).sum().backward()
            (fused * fused).sum().backward()
            assert np.array_equal(x1.grad, x2.grad)
            assert np.array_equal(w1.grad, w2.grad)
            assert np.array_equal(b1.grad, b2.grad)

    def test_module_activation_param(self):
        conv = Conv2d(2, 3, 3, padding=1, activation="relu",
                      rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2)
                   .standard_normal((1, 2, 5, 5)).astype(np.float32))
        out = conv(x)
        assert (out.data >= 0).all()

    def test_unknown_activation_rejected(self):
        x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="activation"):
            conv2d(x, w, activation="gelu")
