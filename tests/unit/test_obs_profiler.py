"""Unit tests for repro.obs.profiler: module/op events, FLOPs
accounting, schedule gating and key_averages (incl. the golden
rows)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, obs
from repro.core.training import Trainer, classification_batch
from repro.data import DataLoader
from repro.obs import profiler as profiler_module
from repro.obs.profiler import Profiler, ProfilerAction, op_span, schedule
from repro.nn.recurrent import ConvLSTMCell
from repro.optim import Adam
from repro.tensor import Tensor


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(True)


def small_model() -> nn.Sequential:
    return nn.Sequential(
        nn.Conv2d(1, 2, 3, padding=1, rng=0),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.GlobalAvgPool2d(),
        nn.Linear(2, 3, rng=0),
    )

def small_input(n: int = 4) -> Tensor:
    return Tensor(
        np.random.default_rng(0).normal(size=(n, 1, 8, 8)).astype(np.float32)
    )


class TestProfilerEvents:
    def test_records_one_event_per_module_call(self):
        model = small_model()
        with Profiler(model) as prof:
            model(small_input())
        module_events = [e for e in prof.events if e.kind == "module"]
        # 5 children + the Sequential root.
        assert len(module_events) == 6
        names = {e.name for e in module_events}
        assert "Sequential" in names and "Sequential.0" in names

    def test_kernel_events_nest_under_module(self):
        model = small_model()
        with Profiler(model) as prof:
            model(small_input())
        conv_op = next(e for e in prof.events if e.name == "ops_conv.conv2d")
        conv_module = next(e for e in prof.events if e.name == "Sequential.0")
        assert conv_op.kind == "op"
        assert conv_op.depth > conv_module.depth
        # Kernel time is carved out of the module's self time.
        assert conv_module.self_dur <= conv_module.dur - conv_op.dur + 1e-9

    def test_batch_norm_time_lands_on_one_op_event(self):
        from repro.core.models.raster import SatCNN

        model = SatCNN(2, 8, 8, 3, base_filters=2, rng=0)
        x = Tensor(np.random.default_rng(0).random((4, 2, 8, 8), dtype=np.float32))
        with Profiler(model) as prof:
            model(x).sum().backward()
        ops = [e for e in prof.events if e.kind == "op"]
        bn_modules = [e for e in prof.events if e.op_type == "BatchNorm2d"]
        assert len(bn_modules) == 4
        for module in bn_modules:
            inside = [
                e for e in ops
                if module.ts <= e.ts and e.ts + e.dur <= module.ts + module.dur
            ]
            # One kernel event, not a smear of anonymous tensor.* ones.
            assert [e.name for e in inside] == ["ops_fused.batch_norm2d"]
            assert inside[0].depth > module.depth
            assert inside[0].activation_bytes == module.activation_bytes > 0
            assert module.flops == 5.0 * module.activation_bytes / 4
        backward = [e for e in ops if e.name == "ops_fused.batch_norm2d.backward"]
        assert len(backward) == 4

    def test_self_time_excludes_children(self):
        model = small_model()
        with Profiler(model) as prof:
            model(small_input())
        root = next(e for e in prof.events if e.name == "Sequential")
        children_dur = sum(
            e.dur for e in prof.events if e.name.startswith("Sequential.")
        )
        assert root.self_dur == pytest.approx(root.dur - children_dur, abs=1e-6)

    def test_detach_removes_hooks_and_clears_active(self):
        model = small_model()
        prof = Profiler(model)
        prof.start()
        assert profiler_module._ACTIVE is prof
        prof.stop()
        assert profiler_module._ACTIVE is None
        assert all(
            not m._forward_hooks and not m._forward_pre_hooks
            for _, m in model.named_modules()
        )
        model(small_input())  # no profiler -> no new events
        assert not any(e.name == "extra" for e in prof.events)

    def test_two_active_profilers_rejected(self):
        first = Profiler(small_model()).start()
        try:
            with pytest.raises(RuntimeError):
                Profiler(small_model()).start()
        finally:
            first.stop()

    def test_max_events_drops_not_grows(self):
        model = small_model()
        prof = Profiler(model, max_events=3)
        with prof:
            model(small_input())
        assert len(prof.events) == 3
        assert prof.dropped_events > 0


class TestFlops:
    def test_linear_formula(self):
        layer = nn.Linear(3, 5, rng=0)
        x = Tensor(np.zeros((7, 3), dtype=np.float32))
        with Profiler(layer) as prof:
            layer(x)
        (event,) = [e for e in prof.events if e.kind == "module"]
        assert event.flops == 2 * 7 * 3 * 5 + 7 * 5  # matmul + bias

    def test_conv2d_formula(self):
        layer = nn.Conv2d(2, 4, 3, padding=1, rng=0)
        x = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        with Profiler(layer) as prof:
            layer(x)
        (event,) = [e for e in prof.events if e.kind == "module"]
        # 2 * N*F*OH*OW * C*K*K + bias
        assert event.flops == 2 * 1 * 4 * 8 * 8 * 2 * 9 + 1 * 4 * 8 * 8

    def test_param_and_activation_bytes(self):
        layer = nn.Linear(3, 5, rng=0)
        x = Tensor(np.zeros((7, 3), dtype=np.float32))
        with Profiler(layer) as prof:
            out = layer(x)
        (event,) = [e for e in prof.events if e.kind == "module"]
        assert event.param_bytes == (3 * 5 + 5) * 4
        assert event.activation_bytes == out.data.nbytes

    def test_recurrent_formula_counts_cell_and_gates(self):
        cell = ConvLSTMCell(2, 3, kernel_size=3, rng=0)
        x = Tensor(np.zeros((4, 2, 2, 2), dtype=np.float32))
        with Profiler(cell) as prof:
            cell(x)
        by_name = {e.name: e for e in prof.events if e.kind == "module"}
        assert by_name["ConvLSTMCell"].flops == 9 * 4 * 3 * 2 * 2
        # The (I+H) -> 4H gate convolution is charged to the child Conv2d.
        gates = by_name["ConvLSTMCell.gates"]
        outputs = 4 * 12 * 2 * 2
        assert gates.flops == 2 * outputs * (2 + 3) * 3 * 3 + outputs

    def test_containers_contribute_zero_flops(self):
        model = small_model()
        with Profiler(model) as prof:
            model(small_input())
        root = next(e for e in prof.events if e.name == "Sequential")
        assert root.flops == 0.0
        assert prof.total_flops() > 0


class TestSchedule:
    def test_actions_cycle(self):
        fn = schedule(wait=2, warmup=1, active=2)
        actions = [fn(step) for step in range(10)]
        assert actions == [
            ProfilerAction.NONE, ProfilerAction.NONE, ProfilerAction.WARMUP,
            ProfilerAction.RECORD, ProfilerAction.RECORD,
            ProfilerAction.NONE, ProfilerAction.NONE, ProfilerAction.WARMUP,
            ProfilerAction.RECORD, ProfilerAction.RECORD,
        ]

    def test_repeat_stops_after_n_cycles(self):
        fn = schedule(wait=0, warmup=0, active=2, repeat=1)
        assert fn(0) == ProfilerAction.RECORD
        assert fn(1) == ProfilerAction.RECORD
        assert fn(2) == ProfilerAction.NONE
        assert fn(100) == ProfilerAction.NONE

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            schedule(active=0)
        with pytest.raises(ValueError):
            schedule(wait=-1)

    def test_only_active_steps_recorded(self):
        layer = nn.Linear(3, 3, rng=0)
        x = Tensor(np.zeros((2, 3), dtype=np.float32))
        prof = Profiler(layer, schedule=schedule(wait=1, warmup=1, active=2, repeat=1))
        with prof:
            for _ in range(6):
                layer(x)
                prof.step()
        steps = sorted({e.step for e in prof.events})
        # Steps 0 (wait) and 1 (warmup) are not kept; 2 and 3 are.
        assert steps == [2, 3]

    def test_on_trace_ready_fires_at_window_end(self):
        layer = nn.Linear(3, 3, rng=0)
        x = Tensor(np.zeros((2, 3), dtype=np.float32))
        ready = []
        prof = Profiler(
            layer,
            schedule=schedule(active=2, repeat=1),
            on_trace_ready=lambda p: ready.append(len(p.events)),
        )
        with prof:
            for _ in range(4):
                layer(x)
                prof.step()
        assert len(ready) == 1
        assert ready[0] == len(prof.events)


class TestOpSpanFastPath:
    def test_no_profiler_returns_shared_noop(self):
        first = op_span("x")
        second = op_span("y")
        assert first is second  # the shared null span

    def test_noop_span_accepts_set_bytes(self):
        with op_span("x") as span:
            span.set_bytes(123)  # must not raise


class TestTrainerIntegration:
    @staticmethod
    def make_bits(seed=0):
        rng = np.random.default_rng(seed)
        images = rng.normal(size=(12, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 3, 12)
        loader = DataLoader(list(zip(images, labels)), batch_size=4)
        model = small_model()
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=0.01),
            nn.CrossEntropyLoss(),
            classification_batch,
        )
        return trainer, loader

    def test_fit_steps_and_stops_profiler(self):
        trainer, loader = self.make_bits()
        prof = Profiler(schedule=schedule(wait=1, active=2, repeat=1))
        trainer.fit(loader, epochs=1, profiler=prof)
        assert prof.model is trainer.model
        assert not prof._started  # fit stopped what it started
        assert profiler_module._ACTIVE is None
        assert prof.step_num == 3  # one step per batch
        assert any(e.kind == "module" for e in prof.events)
        assert any(e.name == "dataloader.fetch" for e in prof.events)

    def test_fit_leaves_caller_started_profiler_running(self):
        trainer, loader = self.make_bits()
        with Profiler(trainer.model) as prof:
            trainer.fit(loader, epochs=1, profiler=prof)
            assert prof._started
        assert profiler_module._ACTIVE is None

    def test_dataloader_metrics_recorded(self):
        trainer, loader = self.make_bits()
        trainer.fit(loader, epochs=1)
        snap = obs.registry.snapshot()
        assert snap["counters"]["dataloader.batches"] == 3
        assert snap["counters"]["dataloader.samples"] == 12
        hist = snap["histograms"]["dataloader.batch_fetch_seconds"]
        assert hist["count"] == 3

    def test_dataloader_metrics_disabled_noop(self):
        trainer, loader = self.make_bits()
        with obs.disabled():
            trainer.fit(loader, epochs=1)
        snap = obs.registry.snapshot()
        assert snap["counters"].get("dataloader.batches", 0) == 0


#: ``key_averages()`` of one forward of ``small_model`` sorted by name:
#: (name, op_type, calls, flops, param_bytes, activation_bytes).
GOLDEN_ROWS = [
    ("Sequential", "Sequential", 1, 0, 0, 48),
    ("Sequential.0", "Conv2d", 1, 9728, 80, 2048),
    ("Sequential.1", "ReLU", 1, 512, 0, 2048),
    ("Sequential.2", "MaxPool2d", 1, 512, 0, 512),
    ("Sequential.3", "GlobalAvgPool2d", 1, 8, 0, 32),
    ("Sequential.4", "Linear", 1, 60, 36, 48),
    ("ops_conv.conv2d", "ops_conv.conv2d", 1, 0, 0, 2048),
    ("ops_conv.max_pool2d", "ops_conv.max_pool2d", 1, 0, 0, 512),
    ("ops_fused.linear", "ops_fused.linear", 1, 0, 0, 48),
    ("tensor.mul", "tensor.mul", 1, 0, 0, 0),
    ("tensor.sum", "tensor.sum", 1, 0, 0, 0),
]


class TestKeyAverages:
    def test_golden_table_masked_times(self):
        model = small_model()
        with Profiler(model) as prof:
            model(small_input())
        averages = prof.key_averages()
        rows = sorted(averages.rows, key=lambda r: r["name"])
        assert [
            (r["name"], r["op_type"], r["calls"], int(r["flops"]),
             r["param_bytes"], r["activation_bytes"])
            for r in rows
        ] == GOLDEN_ROWS
        assert prof.total_flops() == 10820
        assert averages.total_param_bytes == 116

    def test_calls_accumulate_and_params_not_multiplied(self):
        layer = nn.Linear(3, 3, rng=0)
        x = Tensor(np.zeros((2, 3), dtype=np.float32))
        with Profiler(layer) as prof:
            layer(x)
            layer(x)
            layer(x)
        rows = prof.key_averages().rows
        (row,) = [r for r in rows if r["op_type"] == "Linear"]
        assert row["calls"] == 3
        assert row["param_bytes"] == (3 * 3 + 3) * 4  # once, not 3x
        # The fused-linear kernel span rides along, one per call.
        (op_row,) = [r for r in rows if r["op_type"] == "ops_fused.linear"]
        assert op_row["calls"] == 3

    def test_group_by_op_type_merges_instances(self):
        model = nn.Sequential(nn.Linear(3, 3, rng=0), nn.Linear(3, 3, rng=1))
        x = Tensor(np.zeros((2, 3), dtype=np.float32))
        with Profiler(model) as prof:
            model(x)
        averages = prof.key_averages(group_by="op_type")
        linear = next(r for r in averages.rows if r["name"] == "Linear")
        assert linear["calls"] == 2
        # Two distinct modules: their params sum.
        assert linear["param_bytes"] == 2 * (3 * 3 + 3) * 4

    def test_bad_arguments_rejected(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            prof.key_averages(group_by="nope")
