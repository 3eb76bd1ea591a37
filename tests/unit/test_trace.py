"""Trace lifecycle edges: guards, fallbacks, pool traffic, stats.

Bit-identity of replayed numerics is pinned property-style in
``tests/property/test_property_trace.py``; this file covers the state
machine around it — every guard must land in eager fallback (never
wrong results), and a replayed step must make eager's pool traffic
and eager's op-counter calls, nothing more.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.training import Trainer
from repro.data import DataLoader
from repro.nn import functional as F
from repro.optim import Adam
from repro.tensor import Tensor, TraceSession, default_pool, no_grad


def _pair_batch(batch):
    """(frame, target frame) batches as the model's one input."""
    x, y = batch
    return (Tensor(x),), Tensor(y)


class TinyNet(nn.Module):
    def __init__(self, rng=0):
        super().__init__()
        self.fc = nn.Linear(6, 3, rng=np.random.default_rng(rng))

    def forward(self, x):
        return self.fc(x).tanh()


def linear():
    return nn.Linear(6, 6, rng=np.random.default_rng(0))


def batch(rng, n=4):
    return (
        Tensor(rng.standard_normal((n, 6)).astype(np.float32)),
        Tensor(rng.standard_normal((n, 3)).astype(np.float32)),
    )


def clear_grads(model):
    for p in model.parameters():
        p.grad = None


def steps_match_eager(make_model, batches):
    """Step a traced and an eager copy of the model through
    ``batches``, asserting every loss and parameter gradient equal bit
    for bit; returns the session's stats."""
    eager, traced = make_model(), make_model()
    session = TraceSession(traced, F.mse_loss)
    for inputs, target in batches:
        loss = F.mse_loss(eager(*inputs), target)
        loss.backward(free_graph=True)
        assert session.step(inputs, target) == loss.item()
        for p, q in zip(eager.parameters(), traced.parameters()):
            assert np.array_equal(p.grad, q.grad)
        clear_grads(eager)
        clear_grads(traced)
    return session.stats()


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

    def test_backend_switch_replays_through_the_active_backend(self):
        from repro.tensor import use_backend

        rng = np.random.default_rng(6)
        eager = nn.ConvLSTM(2, [3], 3)
        traced = nn.ConvLSTM(2, [3], 3)
        for p, q in zip(eager.parameters(), traced.parameters()):
            q.data = p.data.copy()
        session = TraceSession(traced, F.mse_loss)
        x = Tensor(rng.standard_normal((1, 2, 2, 4, 4)).astype(np.float32))
        y = Tensor(rng.standard_normal((1, 2, 3, 4, 4)).astype(np.float32))
        session.step((x,), y)  # recorded under the accelerated backend
        clear_grads(traced)
        with use_backend("naive"):
            # No kernel choice is baked into the tape: the replayed
            # conv2d dispatches on the backend when it is called.
            traced_loss = session.step((x,), y)
            loss = F.mse_loss(eager(x), y)
            loss.backward(free_graph=True)
        assert session.stats()["replays"] == 1
        assert session.stats()["fallbacks"] == 0
        assert traced_loss == loss.item()
        for p, q in zip(eager.parameters(), traced.parameters()):
            assert np.array_equal(p.grad, q.grad)

    def test_different_aliasing_among_batch_tensors_falls_back(self):
        # Recorded as an autoencoder step (target is the input): the
        # tape has one slot for both, so a step with a separate target
        # must not replay it.
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        y = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        stats = steps_match_eager(
            linear, [((x,), target) for target in (x, x, y, x)]
        )
        assert (stats["replays"], stats["fallbacks"]) == (2, 1)


def clip(t, low, high):
    """Clipping as a model might define it: an autograd op not defined
    under ``_op``, so no call of it is recorded."""
    mask = (t.data >= low) & (t.data <= high)

    def backward(grad):
        t._accumulate(grad * mask)

    return Tensor._make(np.clip(t.data, low, high), (t,), backward)


def where(cond, a, b):
    """A differentiable select not defined under ``_op``."""

    def backward(grad):
        a._accumulate(grad * cond)
        b._accumulate(grad * np.logical_not(cond))

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward)


class Untraceable(nn.Module):
    """Uses ``op``: one not defined under ``_op`` (``clip``, ``where``),
    an outside tensor or array, or ``max``, which is."""

    def __init__(self, op):
        super().__init__()
        self.fc = nn.Linear(6, 3, rng=np.random.default_rng(0))
        self.op = op

    def forward(self, x):
        h = self.fc(x)
        if self.op == "clip":
            return clip(h, -0.5, 0.5)
        if self.op == "max":
            return h + h.max(axis=1, keepdims=True)
        if self.op == "where":
            return where(x.data[:, :3] > 0, h, h * 0.5)
        if self.op == "outside_array":
            return h * np.full((1, 3), 0.5, dtype=np.float32)
        # a non-scalar tensor made outside the traced ops
        return h * Tensor(np.full((1, 3), 0.5, dtype=np.float32))


class TestUntraceableModels:
    @pytest.mark.parametrize(
        "op,reason",
        [
            ("clip", "created outside the traced region"),
            ("where", "created outside the traced region"),
            ("outside_tensor", "only scalars and zeros/ones/full"),
            ("outside_array", "only scalars and zeros/ones/full"),
        ],
    )
    def test_session_disables_with_reason_and_matches_eager(self, op, reason):
        rng = np.random.default_rng(14)
        batches = [((x,), y) for x, y in (batch(rng) for _ in range(3))]
        stats = steps_match_eager(lambda: Untraceable(op), batches)
        assert stats["state"] == "disabled"
        assert reason in stats["disabled_reason"]
        assert stats["replays"] == 0

    def test_max_replays_bit_identically(self):
        # ``Tensor.max`` is an op like any other: recorded, replayed.
        rng = np.random.default_rng(14)
        batches = [((x,), y) for x, y in (batch(rng) for _ in range(3))]
        stats = steps_match_eager(lambda: Untraceable("max"), batches)
        assert (stats["state"], stats["replays"]) == ("ready", 2)

    def test_unrecorded_op_nothing_recorded_consumes(self):
        # No recorded call ever sees these outputs, so the recorder only
        # learns of them from the loss / the unclaimed graph node.
        rng = np.random.default_rng(15)
        x, y = batch(rng)

        session = TraceSession(
            TinyNet(), lambda out, target: clip((out - target).sum(), -9.0, 9.0)
        )
        session.step((x,), y)
        assert session.stats()["state"] == "disabled"
        assert "not produced by traced ops" in session.stats()["disabled_reason"]

        def dead_branch(out, target):
            clip(out, -1.0, 1.0)  # result unused
            return F.mse_loss(out, target)

        session = TraceSession(TinyNet(), dead_branch)
        session.step((x,), y)
        assert session.stats()["state"] == "disabled"
        assert "does not support" in session.stats()["disabled_reason"]


class TwoInputs(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(6, 6, rng=np.random.default_rng(1))

    def forward(self, a, b):
        return (self.fc(a) * b).tanh()


class TestBatchForms:
    """Ways a batch can reach ``step`` that a tape must bind right."""

    def arrays(self, dtype=np.float32):
        rng = np.random.default_rng(17)
        return [rng.standard_normal((4, 6)).astype(dtype) for _ in range(6)]

    def check(self, make_model, batches):
        stats = steps_match_eager(make_model, batches)
        assert (stats["captures"], stats["replays"]) == (1, len(batches) - 1)

    def test_autoencoder_target_is_the_input(self):
        batches = [((x,), x) for x in map(Tensor, self.arrays()[:3])]
        self.check(linear, batches)

    def test_same_tensor_passed_as_two_inputs(self):
        a = self.arrays()
        batches = [
            ((x, x), Tensor(y))
            for x, y in zip(map(Tensor, a[:3]), a[3:])
        ]
        self.check(TwoInputs, batches)

    def test_numpy_array_target(self):
        a = self.arrays()
        batches = [((Tensor(x),), y) for x, y in zip(a[:3], a[3:])]
        self.check(linear, batches)

    def test_float64_inputs(self):
        a = self.arrays(np.float64)
        batches = [
            ((Tensor(x, dtype=np.float64),), Tensor(y, dtype=np.float64))
            for x, y in zip(a[:3], a[3:])
        ]
        assert batches[0][0][0].dtype == np.float64
        self.check(linear, batches)


class TestProfileUnderReplay:
    def test_replayed_step_has_eagers_op_names_and_call_counts(self):
        from repro import obs

        rng = np.random.default_rng(18)
        model = nn.ConvLSTM(2, [3], 3)
        x = Tensor(rng.standard_normal((1, 2, 2, 4, 4)).astype(np.float32))
        y = Tensor(rng.standard_normal((1, 2, 3, 4, 4)).astype(np.float32))
        session = TraceSession(model, F.mse_loss)
        session.step((x,), y)
        clear_grads(model)

        def op_calls(step):
            """The ``tensor.op_calls.*`` counters ``step`` moved."""
            def read():
                return {
                    name: value
                    for name, value in obs.registry.snapshot()["counters"].items()
                    if name.startswith("tensor.op_calls.")
                }

            before = read()
            step()
            clear_grads(model)
            return {
                name: value - before.get(name, 0)
                for name, value in read().items()
                if value != before.get(name, 0)
            }

        eager = op_calls(
            lambda: F.mse_loss(model(x), y).backward(free_graph=True)
        )
        replayed = op_calls(lambda: session.step((x,), y))
        assert session.stats()["replays"] == 1
        assert "tensor.op_calls.ops_conv.conv2d.backward" in eager
        assert "tensor.op_calls.ops_fused.lstm_gates" in eager
        assert replayed == eager


class TestPoolResidency:
    def steps(self, traced, k=5):
        """``default_pool().stats()`` (hits, misses, rejects, resident
        arrays and bytes, per-key high water) after each of ``k + 1``
        ConvLSTM steps from an empty pool."""
        rng = np.random.default_rng(7)
        model = nn.ConvLSTM(2, [4], 3)
        for p in model.parameters():
            p.data = (rng.standard_normal(p.shape) * 0.1).astype(np.float32)
        x = Tensor(rng.standard_normal((2, 4, 2, 8, 8)).astype(np.float32))
        y = Tensor(rng.standard_normal((2, 4, 4, 8, 8)).astype(np.float32))
        session = TraceSession(model, F.mse_loss)
        default_pool().reset()
        readings = []
        for _ in range(k + 1):
            if traced:
                session.step((x,), y)
            else:
                F.mse_loss(model(x), y).backward(free_graph=True)
            clear_grads(model)
            readings.append(default_pool().stats())
        if traced:
            assert session.stats()["replays"] == k
        return readings

    def test_replay_makes_eagers_pool_traffic(self):
        assert self.steps(traced=True) == self.steps(traced=False)

    def test_close_leaves_the_pool_where_it_found_it(self):
        rng = np.random.default_rng(8)
        model = TinyNet()
        session = TraceSession(model, F.mse_loss)
        x, y = batch(rng)
        session.step((x,), y)
        clear_grads(model)
        session.step((x,), y)
        before = default_pool().stats()
        session.close()  # the tape owns no buffers
        assert default_pool().stats() == before
        assert session.stats()["state"] == "idle"


class TestRetainGraphPrecedence:
    """``free_graph`` is the one switch: ``backward()`` keeps the graph
    unless it is True, and the error names the way to keep it."""

    def test_free_graph_alone_frees(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = (x * x).sum()
        y.backward(free_graph=True)
        with pytest.raises(RuntimeError, match="free_graph=False"):
            y.backward(free_graph=True)


class TestPoolStats:
    def test_stats_fields_and_high_water(self):
        from repro.tensor.pool import ArrayPool

        pool = ArrayPool()
        a = pool.acquire((4,), np.float32)
        pool.release(a)
        b = pool.acquire((4,), np.float32)  # hit
        assert b is a
        c = pool.acquire((4,), np.float32)  # miss: two out, demand 2
        assert pool.release(b) and pool.release(c)  # depth 2 = high water
        assert not pool.release(np.ones(4, dtype=np.float32))  # over demand
        pool.release(np.ones((2, 2), dtype=np.float32)[:, :1])  # view
        stats = pool.stats()
        assert stats["hit_rate"] == pytest.approx(1 / 3)
        assert (stats["hits"], stats["misses"], stats["rejects"]) == (1, 2, 2)
        assert stats["reject_per_key"] == 1
        assert stats["reject_alias"] == 1
        assert stats["reject_bytes"] == 0
        assert stats["high_water_max"] == 2
        assert stats["high_water"] == {"(4,):<f4": 2}
        assert stats["demand"] == {"(4,):<f4": 2}

    def test_reject_bytes_counted(self):
        from repro.tensor.pool import ArrayPool

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
        loader = DataLoader(list(zip(x, y)), batch_size=4)
        model = TinyNet(rng=3)
        trainer = Trainer(
            model,
            Adam(list(model.parameters()), lr=0.05),
            nn.MSELoss(),
            _pair_batch,
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
        stats = t2._trace_session.stats()
        assert stats["captures"] == 1
        assert stats["replays"] >= 4

    def test_fit_trace_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        trainer, loader = self.make_bits()
        trainer.fit(loader, epochs=2)
        assert trainer._trace_session is not None
        assert trainer._trace_session.stats()["replays"] >= 2

    def test_fit_without_trace_builds_no_session(self):
        trainer, loader = self.make_bits()
        trainer.fit(loader, epochs=1, trace=False)
        assert trainer._trace_session is None

    def test_swapped_loss_fn_is_not_replayed_stale(self):
        losses = {}
        for trace in (False, True):
            trainer, loader = self.make_bits()
            first = trainer.train_epoch(loader, trace=trace)
            stale = trainer._trace_session
            trainer.loss_fn = lambda out, target: ((out - target) ** 4).mean()
            losses[trace] = (first, trainer.train_epoch(loader, trace=trace))
        assert losses[True] == losses[False]
        assert trainer._trace_session is not stale
        assert stale.stats()["state"] == "idle"  # closed
        assert trainer._trace_session.stats()["replays"] == 1


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
            ("pad_into", "conv_windows", "im2col", "conv_forward",
             "grad_feature_major", "conv_dw", "dx_by_correlation",
             "flipped", "conv_dx_scatter"),
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
            assert eager == replayed
            correlate = stride == 1 and out <= mid
            assert eager["conv_forward"] == (3 if correlate else 2)
            assert eager["conv_dx_scatter"] == (0 if correlate else 1)
            assert eager["conv_dw"] == eager["grad_feature_major"] == 2


class TestTraceReasonCounters:
    @staticmethod
    def counter(name):
        from repro import obs

        return obs.registry.counter(name).value

    def test_signature_mismatch_fallback_reason_counted(self):
        rng = np.random.default_rng(0)
        model = nn.Linear(6, 3, rng=rng)
        session = TraceSession(model, F.mse_loss)
        reason = "tensor.trace.fallback.signature_mismatch"
        before = self.counter(reason), self.counter("tensor.trace.fallback")
        for n in (4, 2):  # capture, then a signature mismatch
            x, y = batch(rng, n)
            session.step((x,), y)
            clear_grads(model)
        assert self.counter(reason) == before[0] + 1
        assert self.counter("tensor.trace.fallback") >= before[1] + 1

    def test_invalidate_reason_counted(self):
        rng = np.random.default_rng(1)
        model = nn.Linear(6, 3, rng=rng)
        session = TraceSession(model, F.mse_loss)
        reason = "tensor.trace.invalidate.parameter_or_module_mode_change"
        before = self.counter(reason)
        x, y = batch(rng)
        session.step((x,), y)
        # swap a parameter identity: guard trips, trace invalidates
        model.weight = type(model.weight)(model.weight.data.copy())
        clear_grads(model)
        session.step((x,), y)
        assert self.counter(reason) == before + 1
