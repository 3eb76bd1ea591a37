"""Trace lifecycle edges: guards, fallbacks, pool residency, stats.

Bit-identity of replayed numerics is pinned property-style in
``tests/property/test_property_trace.py``; this file covers the state
machine around it — every guard must land in eager fallback (never
wrong results), and replaying must not leak pool residency.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.training import Trainer, basic_batch
from repro.data import DataLoader, TensorDataset
from repro.nn import functional as F
from repro.optim import SGD
from repro.tensor import (
    Tensor,
    TraceSession,
    default_pool,
    no_grad,
)


class TinyNet(nn.Module):
    def __init__(self, rng=0):
        super().__init__()
        self.fc = nn.Linear(6, 3, rng=np.random.default_rng(rng))

    def forward(self, x):
        return self.fc(x).tanh()


def batch(rng, n=4):
    return (
        Tensor(rng.standard_normal((n, 6)).astype(np.float32)),
        Tensor(rng.standard_normal((n, 3)).astype(np.float32)),
    )


def clear_grads(model):
    for p in model.parameters():
        p.grad = None


class TestLifecycle:
    def test_capture_then_replay(self):
        rng = np.random.default_rng(0)
        model = TinyNet()
        session = TraceSession(model, F.mse_loss)
        x, y = batch(rng)
        session.step((x,), y)
        clear_grads(model)
        session.step((x,), y)
        stats = session.stats()
        assert stats["state"] == "ready"
        assert stats["captures"] == 1
        assert stats["replays"] == 1
        assert stats["program"]["instrs"] > 0

    def test_replay_matches_eager_loss_and_grads(self):
        rng = np.random.default_rng(1)
        x, y = batch(rng)
        eager = TinyNet(rng=7)
        traced = TinyNet(rng=7)
        session = TraceSession(traced, F.mse_loss)
        for _ in range(3):
            loss = F.mse_loss(eager(x), y)
            loss.backward(free_graph=True)
            traced_loss = session.step((x,), y)
            assert traced_loss == loss.item()
            for p, q in zip(eager.parameters(), traced.parameters()):
                assert np.array_equal(p.grad, q.grad)
            clear_grads(eager)
            clear_grads(traced)
        assert session.stats()["replays"] == 2

    def test_no_grad_inside_traced_region_disables(self):
        rng = np.random.default_rng(2)

        class Peeking(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(6, 3, rng=np.random.default_rng(0))

            def forward(self, x):
                with no_grad():
                    x = x + 0.0  # an untracked detour mid-forward
                return self.fc(x).tanh()

        model = Peeking()
        session = TraceSession(model, F.mse_loss)
        x, y = batch(rng)
        eager_loss = F.mse_loss(model(x), y).item()
        value = session.step((x,), y)
        assert value == pytest.approx(eager_loss)
        stats = session.stats()
        assert stats["state"] == "disabled"
        assert "no_grad" in stats["disabled_reason"]
        # every later step is a plain eager step, still correct
        assert session.step((x,), y) == pytest.approx(eager_loss)
        assert session.stats()["replays"] == 0

    def test_smaller_last_batch_falls_back_and_program_survives(self):
        rng = np.random.default_rng(3)
        model = TinyNet()
        session = TraceSession(model, F.mse_loss)
        x, y = batch(rng, n=4)
        session.step((x,), y)
        clear_grads(model)
        session.step((x,), y)  # replay at full size
        clear_grads(model)
        xs, ys = batch(rng, n=2)  # smaller final batch
        eager_model = TinyNet()
        for p, q in zip(model.parameters(), eager_model.parameters()):
            q.data = p.data.copy()
        expect = F.mse_loss(eager_model(xs), ys).item()
        assert session.step((xs,), ys) == pytest.approx(expect)
        clear_grads(model)
        stats = session.stats()
        assert stats["fallbacks"] == 1
        assert stats["state"] == "ready"  # program kept
        session.step((x,), y)  # full-size batches replay again
        assert session.stats()["replays"] == 2

    def test_dropout_disables_trace(self):
        rng = np.random.default_rng(4)

        class WithDropout(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(6, 3, rng=np.random.default_rng(0))
                self.drop = nn.Dropout(0.5)

            def forward(self, x):
                return self.drop(self.fc(x))

        model = WithDropout()
        model.train()
        session = TraceSession(model, F.mse_loss)
        x, y = batch(rng)
        session.step((x,), y)
        assert session.stats()["state"] == "disabled"
        assert "dropout" in session.stats()["disabled_reason"]

    def test_parameter_swap_invalidates_and_recaptures(self):
        rng = np.random.default_rng(5)
        model = TinyNet()
        session = TraceSession(model, F.mse_loss)
        x, y = batch(rng)
        session.step((x,), y)
        clear_grads(model)
        session.step((x,), y)
        clear_grads(model)
        # swap a Parameter object identity (e.g. a surgery/reload)
        model.fc.weight = nn.Parameter(model.fc.weight.data.copy())
        session.step((x,), y)
        clear_grads(model)
        stats = session.stats()
        assert stats["invalidations"] == 1
        assert stats["captures"] == 2
        assert stats["state"] == "ready"

    def test_backend_switch_falls_back(self):
        from repro.tensor import use_backend

        rng = np.random.default_rng(6)
        model = nn.ConvLSTM(2, [3], 3)
        session = TraceSession(model, F.mse_loss)
        x = Tensor(rng.standard_normal((1, 2, 2, 4, 4)).astype(np.float32))
        y = Tensor(rng.standard_normal((1, 2, 3, 4, 4)).astype(np.float32))
        session.step((x,), y)
        clear_grads(model)
        session.step((x,), y)
        clear_grads(model)
        assert session.stats()["replays"] == 1
        with use_backend("naive"):
            session.step((x,), y)  # signature mismatch -> eager
            clear_grads(model)
        assert session.stats()["fallbacks"] == 1
        session.step((x,), y)
        assert session.stats()["replays"] == 2


class TestPoolResidency:
    def test_shared_pool_residency_flat_across_replays(self):
        rng = np.random.default_rng(7)
        model = nn.ConvLSTM(2, [4], 3)
        session = TraceSession(model, F.mse_loss)
        x = Tensor(rng.standard_normal((2, 4, 2, 8, 8)).astype(np.float32))
        y = Tensor(rng.standard_normal((2, 4, 4, 8, 8)).astype(np.float32))
        session.step((x,), y)  # capture
        clear_grads(model)
        session.step((x,), y)  # first replay
        clear_grads(model)
        pool = default_pool()
        readings = []
        for _ in range(4):
            session.step((x,), y)
            clear_grads(model)
            prog = session.stats()["program"]
            readings.append(
                (
                    len(pool),
                    pool.bytes,
                    prog["replay_pool_arrays"],
                    prog["replay_pool_bytes"],
                )
            )
        assert session.stats()["replays"] == 5
        # shared pool untouched, private replay pool at steady state
        assert len(set(readings)) == 1, readings

    def test_close_releases_buffers(self):
        rng = np.random.default_rng(8)
        model = TinyNet()
        session = TraceSession(model, F.mse_loss)
        x, y = batch(rng)
        session.step((x,), y)
        clear_grads(model)
        before = len(default_pool())
        session.close()
        assert len(default_pool()) >= before
        assert session.stats()["state"] == "idle"


class TestRetainGraphPrecedence:
    def test_retain_graph_true_overrides_free_graph(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = (x * x).sum()
        y.backward(free_graph=True, retain_graph=True)
        assert np.array_equal(x.grad, np.array([4.0], dtype=np.float32))
        # retain_graph=True wins over free_graph=True: the graph is
        # still alive, so a second backward succeeds instead of
        # raising the freed-graph RuntimeError.
        y.backward(retain_graph=True)

    def test_free_graph_alone_frees(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = (x * x).sum()
        y.backward(free_graph=True)
        with pytest.raises(RuntimeError):
            y.backward(free_graph=True)

    def test_retain_graph_false_frees_even_without_free_graph(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = (x * x).sum()
        y.backward(retain_graph=False)
        with pytest.raises(RuntimeError):
            y.backward(retain_graph=False)


class TestPoolStats:
    def test_stats_fields_and_high_water(self):
        from repro.tensor import ArrayPool

        pool = ArrayPool(max_per_key=2)
        a = pool.acquire((4,), np.float32)
        pool.release(a)
        b = pool.acquire((4,), np.float32)  # hit
        assert b is a
        pool.release(b)
        pool.release(np.ones(4, dtype=np.float32))  # depth 2 = high water
        pool.release(np.ones(4, dtype=np.float32))  # over per-key cap
        pool.release(np.ones((2, 2), dtype=np.float32)[:, :1])  # view
        stats = pool.stats()
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["reject_per_key"] == 1
        assert stats["reject_alias"] == 1
        assert stats["reject_bytes"] == 0
        assert stats["high_water_max"] == 2
        assert stats["high_water"] == {"(4,):<f4": 2}

    def test_reject_bytes_counted(self):
        from repro.tensor import ArrayPool

        pool = ArrayPool(max_bytes=8)
        pool.release(np.ones(64, dtype=np.float32))
        assert pool.stats()["reject_bytes"] == 1

    def test_default_pool_stats_exports_gauges(self):
        from repro import obs

        default_pool().stats()
        gauges = obs.registry.snapshot()["gauges"]
        for name in (
            "tensor.pool.hit_rate",
            "tensor.pool.bytes",
            "tensor.pool.high_water_max",
            "tensor.pool.reject_alias",
            "tensor.pool.reject_bytes",
            "tensor.pool.reject_per_key",
        ):
            assert name in gauges


class TestTrainerIntegration:
    def make_bits(self, trace_env=None, monkeypatch=None):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 6)).astype(np.float32)
        y = rng.standard_normal((8, 3)).astype(np.float32)
        loader = DataLoader(TensorDataset(x, y), batch_size=4)
        model = TinyNet(rng=3)
        trainer = Trainer(
            model,
            SGD(list(model.parameters()), lr=0.05),
            nn.MSELoss(),
            basic_batch,
        )
        return trainer, loader

    def test_fit_trace_true_replays_and_matches_eager(self):
        t1, loader = self.make_bits()
        t2, _ = self.make_bits()
        for p, q in zip(t1.model.parameters(), t2.model.parameters()):
            q.data = p.data.copy()
        r1 = t1.fit(loader, epochs=3, trace=False)
        r2 = t2.fit(loader, epochs=3, trace=True)
        assert r1.train_losses == r2.train_losses
        for p, q in zip(t1.model.parameters(), t2.model.parameters()):
            assert np.array_equal(p.data, q.data)
        stats = t2.trace_session.stats()
        assert stats["captures"] == 1
        assert stats["replays"] >= 4

    def test_fit_trace_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        trainer, loader = self.make_bits()
        trainer.fit(loader, epochs=2)
        assert trainer.trace_session is not None
        assert trainer.trace_session.stats()["replays"] >= 2

    def test_fit_without_trace_builds_no_session(self):
        trainer, loader = self.make_bits()
        trainer.fit(loader, epochs=1, trace=False)
        assert trainer.trace_session is None


class TwoConv(nn.Module):
    """conv(+ReLU) -> conv; the second conv's input needs a gradient,
    so its (mid -> out, stride) picks the input-gradient form."""

    def __init__(self, mid, out, stride):
        super().__init__()
        gen = np.random.default_rng(5)
        self.a = nn.Conv2d(3, mid, 3, padding=1, rng=gen, activation="relu")
        self.b = nn.Conv2d(mid, out, 3, stride=stride, padding=1, rng=gen)

    def forward(self, x):
        return self.b(self.a(x))


def conv_batch(rng, out, stride):
    side = 6 // stride
    return (
        Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32)),
        Tensor(rng.standard_normal((2, out, side, side)).astype(np.float32)),
    )


class TestConvKernelSharing:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("mid,out", [(4, 2), (3, 3), (2, 4)])
    def test_traced_conv_bitwise_equals_eager(self, mid, out, stride):
        rng = np.random.default_rng(11)
        eager = TwoConv(mid, out, stride)
        traced = TwoConv(mid, out, stride)
        session = TraceSession(traced, F.mse_loss)
        for _ in range(3):
            x, y = conv_batch(rng, out, stride)
            loss = F.mse_loss(eager(x), y)
            loss.backward(free_graph=True)
            assert session.step((x,), y) == loss.item()
            for p, q in zip(eager.parameters(), traced.parameters()):
                assert np.array_equal(p.grad, q.grad)
            clear_grads(eager)
            clear_grads(traced)
        assert session.stats()["replays"] == 2

    def test_replay_and_eager_call_the_same_kernel_functions(self, monkeypatch):
        from repro.tensor import ops_conv

        calls = dict.fromkeys(
            ("im2col", "conv_forward", "grad_feature_major", "conv_dw",
             "conv_dx_scatter"),
            0,
        )
        for name in calls:
            def counted(*args, _fn=getattr(ops_conv, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(ops_conv, name, counted)

        def step_counts(mid, out, stride, replay):
            model = TwoConv(mid, out, stride)
            rng = np.random.default_rng(13)
            x, y = conv_batch(rng, out, stride)
            session = TraceSession(model, F.mse_loss)
            session.step((x,), y)  # the capture step runs eager conv2d
            clear_grads(model)
            before = dict(calls)
            if replay:
                session.step((x,), y)
                assert session.stats()["replays"] == 1
            else:
                F.mse_loss(model(x), y).backward(free_graph=True)
            return {name: calls[name] - before[name] for name in calls}

        for mid, out, stride in [(4, 2, 1), (2, 4, 1), (4, 2, 2)]:
            eager = step_counts(mid, out, stride, replay=False)
            replayed = step_counts(mid, out, stride, replay=True)
            # Eager refills the column buffer once per weight gradient;
            # replay keeps the forward fill.
            assert eager.pop("im2col") == replayed.pop("im2col") + 2
            assert eager == replayed
            correlate = stride == 1 and out <= mid
            assert eager["conv_forward"] == (3 if correlate else 2)
            assert eager["conv_dx_scatter"] == (0 if correlate else 1)
            assert eager["conv_dw"] == eager["grad_feature_major"] == 2
