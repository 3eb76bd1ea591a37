"""Unit tests for the continuous telemetry runtime: windowed
histograms, cross-thread trace propagation, the background exporter,
the resource sampler, and per-query profile artifacts."""

from __future__ import annotations

import json
import math
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.engine import Session, col
from repro.obs import MetricsRegistry, Tracer, WindowedHistogram
from repro.obs.metrics import _NONPOS_BUCKET, _bucket_of
from repro.obs.runtime import TelemetryRuntime
from repro.obs.sampler import ResourceSampler


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(True)


def _nearest_rank(data, q):
    data = np.sort(np.asarray(data, dtype=np.float64))
    rank = max(1, math.ceil(q / 100.0 * len(data)))
    return float(data[rank - 1])


class TestLogBuckets:
    def test_bucket_covers_pow2_interval(self):
        assert _bucket_of(1.0) == 0
        assert _bucket_of(1.999) == 0
        assert _bucket_of(2.0) == 1
        assert _bucket_of(0.5) == -1
        assert _bucket_of(0.25) == -2

    def test_nonpositive_and_nan_hit_sentinel(self):
        assert _bucket_of(0.0) == _NONPOS_BUCKET
        assert _bucket_of(-3.0) == _NONPOS_BUCKET
        assert _bucket_of(float("nan")) == _NONPOS_BUCKET


class TestWindowedHistogram:
    def test_exact_rank_quantiles_on_synthetic_distribution(self):
        # One distinct value per log2 bucket: the bucket-granular
        # nearest-rank quantile is then *exactly* the true order
        # statistic, for every q.
        values = [0.001, 0.004, 0.02, 0.1, 0.3, 1.5, 6.0]
        rng = np.random.default_rng(0)
        data = rng.choice(values, size=5000)
        hist = WindowedHistogram("lat", window_s=60.0, clock=lambda: 0.0)
        for v in data:
            hist.observe(v)
        for q in (50, 95, 99):
            assert hist.percentile(q) == _nearest_rank(data, q)

    def test_quantile_bound_within_2x_on_arbitrary_values(self):
        rng = np.random.default_rng(1)
        data = rng.lognormal(mean=-3.0, sigma=1.5, size=4000)
        hist = WindowedHistogram("lat", clock=lambda: 0.0)
        for v in data:
            hist.observe(v)
        for q in (50, 95, 99):
            true = _nearest_rank(data, q)
            got = hist.percentile(q)
            assert true <= got <= 2.0 * true + 1e-12

    def test_tail_quantile_exact_under_load_unlike_decimation(self):
        # 100k observations: the reservoir Histogram has decimated
        # away most of the tail by now; the windowed histogram's
        # bucket counts remain exact.
        hist = WindowedHistogram("lat", clock=lambda: 0.0)
        data = np.concatenate(
            [np.full(99_000, 0.01), np.full(1_000, 0.7)]
        )
        for v in data:
            hist.observe(v)
        assert hist.window().count == 100_000
        assert hist.percentile(99) == pytest.approx(0.01)
        assert hist.percentile(99.5) == pytest.approx(0.7)

    def test_window_expiry_drops_old_slices(self):
        now = [0.0]
        hist = WindowedHistogram(
            "lat", window_s=6.0, slices=3, clock=lambda: now[0]
        )
        hist.observe(1.0)
        assert hist.window().count == 1
        now[0] = 100.0  # all slices out of window
        assert hist.window().count == 0
        hist.observe(2.0)
        snap = hist.window()
        assert snap.count == 1 and snap.max == 2.0
        # lifetime stays exact
        assert hist.count == 2 and hist.total == 3.0

    def test_ring_reuses_slices_without_mixing_epochs(self):
        now = [0.0]
        hist = WindowedHistogram(
            "lat", window_s=4.0, slices=4, clock=lambda: now[0]
        )
        for step in range(8):  # two full trips around the ring
            now[0] = float(step)
            hist.observe(float(step + 1))
        # only the last `slices` seconds are in the window
        snap = hist.window()
        assert snap.count == 4
        assert snap.min == 5.0 and snap.max == 8.0

    def test_snapshots_merge_exactly(self):
        a = WindowedHistogram("a", clock=lambda: 0.0)
        b = WindowedHistogram("b", clock=lambda: 0.0)
        data_a = [0.001, 0.3, 0.3, 6.0]
        data_b = [0.02, 0.02, 1.5]
        for v in data_a:
            a.observe(v)
        for v in data_b:
            b.observe(v)
        merged = a.window().merge(b.window())
        union = data_a + data_b
        assert merged.count == len(union)
        for q in (50, 95, 99):
            assert merged.percentile(q) == _nearest_rank(union, q)

    def test_summary_schema_and_empty_window(self):
        hist = WindowedHistogram("lat", clock=lambda: 0.0)
        summary = hist.summary()
        assert list(summary) == [
            "count", "sum", "window_s", "window_count", "min", "max",
            "mean", "p50", "p95", "p99",
        ]
        assert summary["count"] == 0 and summary["p99"] is None
        assert math.isnan(hist.percentile(99))

    def test_disabled_obs_records_nothing(self):
        hist = WindowedHistogram("lat", clock=lambda: 0.0)
        with obs.disabled():
            hist.observe(1.0)
        assert hist.count == 0

    def test_reset_clears_window_and_lifetime(self):
        hist = WindowedHistogram("lat", clock=lambda: 0.0)
        hist.observe(1.0)
        hist.reset()
        assert hist.count == 0 and hist.window().count == 0


class TestRegistryWindowed:
    def test_get_or_create_and_snapshot_section(self):
        registry = MetricsRegistry()
        assert "windowed" not in registry.snapshot()
        hist = registry.windowed_histogram("x.latency")
        assert registry.windowed_histogram("x.latency") is hist
        hist.observe(0.5)
        snap = registry.snapshot()
        assert snap["windowed"]["x.latency"]["count"] == 1

    def test_reset_bumps_generation_twice_and_stays_even(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        g0 = registry.generation
        assert g0 % 2 == 0
        registry.reset()
        assert registry.generation == g0 + 2
        assert registry.counter("c").value == 0
        registry.clear()
        assert registry.generation == g0 + 4


class TestCrossThreadSpans:
    def test_explicit_parent_attaches_across_threads(self):
        tracer = Tracer()
        with tracer.span("driver") as driver:
            def work():
                with tracer.span("worker", parent=driver) as span:
                    span.add("n", 1)

            threads = [threading.Thread(target=work) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(driver.children) == 3
        for child in driver.children:
            assert child.parent is driver
            assert child.parent_id == driver.span_id
            assert child.thread_id != driver.thread_id

    def test_worker_nesting_is_per_thread(self):
        tracer = Tracer()
        seen = {}

        def work(name):
            with tracer.span(f"{name}.outer"):
                with tracer.span(f"{name}.inner") as inner:
                    seen[name] = inner.parent.name

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"t0": "t0.outer", "t1": "t1.outer"}

    def test_parent_none_forces_root(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("detached", parent=None):
                pass
        names = [s.name for s in tracer.roots]
        assert names == ["detached", "outer"]

    def test_non_lifo_exit_tolerated(self):
        tracer = Tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        tracer.end_span(a)  # out of order: a exits while b still open
        tracer.end_span(b)
        assert [s.name for s in tracer.roots] == ["a"]
        assert a.children[0] is b

    def test_open_spans_snapshot_and_reset_keeps_seq_monotonic(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        seq_before = tracer.roots[-1].root_seq
        span = tracer.start_span("open")
        assert [s.name for s in tracer.open_spans()] == ["open"]
        tracer.reset()
        assert tracer.open_spans() == []
        tracer.end_span(span)
        with tracer.span("two"):
            pass
        assert tracer.roots[-1].root_seq > seq_before


class TestResourceSampler:
    def test_sample_publishes_process_pool_and_spill_gauges(self):
        registry = MetricsRegistry()
        values = ResourceSampler(registry=registry).sample()
        assert values["process.rss_bytes"] > 0
        assert "process.gc.collections" in values
        assert "tensor.pool.hit_rate" in values
        assert "engine.spill.live_managers" in values
        snap = registry.snapshot()["gauges"]
        assert snap["process.rss_bytes"] == values["process.rss_bytes"]

    def test_pool_gauges_refresh_without_stats_call(self):
        from repro.tensor.pool import default_pool

        registry = MetricsRegistry()
        pool = default_pool()
        baseline = pool.hits + pool.misses
        pool.acquire((4, 4), np.float32)
        ResourceSampler(registry=registry).sample()
        gauges = registry.snapshot()["gauges"]
        assert gauges["tensor.pool.hit_rate"] >= 0.0
        assert pool.hits + pool.misses == baseline + 1


class TestTelemetryRuntime:
    def test_flush_writes_all_file_kinds(self, tmp_path):
        d = str(tmp_path)
        rt = TelemetryRuntime(d, interval_s=60.0)
        obs.registry.counter("demo.hits").inc(5)
        with obs.tracer.span("demo.root"):
            pass
        assert rt.flush() is True
        names = sorted(os.listdir(d))
        assert "events.jsonl" in names
        assert "metrics.prom" in names
        assert "metrics.json" in names
        assert any(n.startswith("trace-") for n in names)
        prom = (tmp_path / "metrics.prom").read_text()
        assert "repro_demo_hits_total 5.0" in prom
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["metrics"]["counters"]["demo.hits"] == 5

    def test_events_jsonl_carries_deltas_not_absolutes(self, tmp_path):
        rt = TelemetryRuntime(str(tmp_path), interval_s=60.0)
        counter = obs.registry.counter("demo.ticks")
        counter.inc(3)
        rt.flush()
        counter.inc(2)
        rt.flush()
        lines = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        metric_lines = [ln for ln in lines if ln["kind"] == "metrics"]
        assert metric_lines[0]["counters"]["demo.ticks"] == 3
        assert metric_lines[1]["counters"]["demo.ticks"] == 2

    def test_span_events_appear_once(self, tmp_path):
        rt = TelemetryRuntime(str(tmp_path), interval_s=60.0)
        with obs.tracer.span("q1"):
            pass
        rt.flush()
        rt.flush()  # no new roots: must not re-export q1
        lines = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        spans = [ln for ln in lines if ln["kind"] == "span"]
        assert [s["span"]["name"] for s in spans] == ["q1"]

    def test_reset_between_flushes_rebases_deltas(self, tmp_path):
        rt = TelemetryRuntime(str(tmp_path), interval_s=60.0)
        obs.registry.counter("demo.n").inc(10)
        rt.flush()
        obs.registry.reset()
        obs.registry.counter("demo.n").inc(4)
        assert rt.flush() is True
        lines = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        metric_lines = [ln for ln in lines if ln["kind"] == "metrics"]
        # never a negative delta from the reset
        assert metric_lines[-1]["counters"]["demo.n"] == 4

    def test_flush_discarded_when_reset_races(self, tmp_path):
        rt = TelemetryRuntime(str(tmp_path), interval_s=60.0)
        # simulate "reset in progress": odd generation
        obs.registry._begin_generation()
        try:
            assert rt.flush() is False
        finally:
            obs.registry._end_generation()
        assert rt.skipped_flushes == 1
        assert not (tmp_path / "events.jsonl").exists()

    def test_trace_segments_roll(self, tmp_path):
        rt = TelemetryRuntime(
            str(tmp_path), interval_s=60.0, max_trace_segments=2
        )
        for i in range(4):
            with obs.tracer.span(f"q{i}"):
                pass
            rt.flush()
        segments = sorted(
            n for n in os.listdir(tmp_path) if n.startswith("trace-")
        )
        assert len(segments) == 2
        assert segments == ["trace-00003.json", "trace-00004.json"]

    def test_background_thread_flushes_and_stops(self, tmp_path):
        rt = TelemetryRuntime(str(tmp_path), interval_s=0.02)
        rt.start()
        assert rt.running
        obs.registry.counter("demo.bg").inc()
        deadline = 100
        import time as _time

        while rt.flush_count == 0 and deadline:
            _time.sleep(0.01)
            deadline -= 1
        rt.stop()
        assert not rt.running
        assert rt.flush_count > 0
        # restartable after stop
        rt.start()
        assert rt.running
        rt.stop()

    def test_context_manager_final_flush(self, tmp_path):
        with TelemetryRuntime(str(tmp_path), interval_s=60.0):
            obs.registry.counter("demo.cm").inc()
        assert (tmp_path / "metrics.prom").exists()

    def test_process_runtime_singleton(self, tmp_path):
        # The check.sh obs-export lane (REPRO_OBS_EXPORT=1) starts the
        # process runtime at import — park it so this test owns one.
        preexisting = obs.get_runtime()
        obs.stop_runtime()
        rt = obs.start_runtime(directory=str(tmp_path), interval_s=60.0)
        try:
            assert obs.get_runtime() is rt
            assert obs.start_runtime() is rt
        finally:
            obs.stop_runtime()
        assert obs.get_runtime() is None
        if preexisting is not None:
            preexisting.start()
            obs._runtime = preexisting


class TestQueryProfiles:
    def _frame(self, session, n=200):
        return session.create_dataframe(
            {
                "k": np.arange(n, dtype=np.int64) % 7,
                "v": np.linspace(0.0, 1.0, n),
            }
        )

    def test_session_assigns_query_ids(self):
        session = Session()
        df = self._frame(session)
        df.collect()
        first = session.last_query_id
        df.count()
        assert session.last_query_id == first + 1

    def test_query_span_tagged_and_retained(self):
        session = Session()
        self._frame(session).collect()
        span = session.last_query_span
        assert span is not None and span.name == "engine.query"
        assert span.attrs["query_id"] == session.last_query_id
        assert span.elapsed_s > 0.0

    def test_profile_artifact_schema(self, tmp_path):
        session = Session()
        df = self._frame(session).filter(col("v") > 0.1).with_column(
            "w", col("v") * 2.0
        )
        path = str(tmp_path / "profile.json")
        rows = df.collect(profile=path)
        payload = json.loads(open(path).read())
        assert payload["schema_version"] == 2
        assert payload["query_id"] == session.last_query_id
        assert payload["session"] == {
            "optimize": True,
            "memory_budget": session.memory_budget,
            "default_parallelism": 4,
        }
        assert payload["compiled"] is True  # filter+with_column fuse
        assert payload["spilled"] is False
        assert payload["operators"]["rows_out"] == len(rows)
        assert payload["trace"]["name"] == "engine.query"
        assert isinstance(payload["plan"], list) and payload["plan"]

    def test_profile_requires_obs_enabled(self, tmp_path):
        session = Session()
        df = self._frame(session)
        with obs.disabled():
            with pytest.raises(RuntimeError, match="observability"):
                df.collect(profile=str(tmp_path / "p.json"))

    def test_parallel_spilled_query_has_one_connected_span_tree(self):
        # Two user threads each run a query under a forced memory
        # budget at the same time.  Each query's spill spans are all
        # reachable from (and correctly parented under) its own single
        # engine.query root, on its own thread — the tracer's nesting
        # stack is per thread.
        roots = {}

        def query(slot):
            with Session(memory_budget=1, default_parallelism=4) as session:
                (
                    self._frame(session, n=400)
                    .with_column("w", col("v") * 3.0)
                    .filter(col("v") >= 0.0)
                    .order_by("k")
                    .collect()
                )
                roots[slot] = session.last_query_span

        threads = [threading.Thread(target=query, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert sorted(roots) == [0, 1]
        assert roots[0].thread_id != roots[1].thread_id
        for root in roots.values():
            spans = list(root.walk())
            names = {s.name for s in spans}
            assert root.name == "engine.query"
            assert "engine.spill.write" in names
            assert "engine.spill.read" in names
            ids = {s.span_id for s in spans}
            for span in spans:
                assert span.thread_id == root.thread_id
                if span is root:
                    assert span.parent is None
                else:
                    assert span.parent is not None
                    assert span.parent_id in ids


class TestTraceReasonCounters:
    def test_signature_mismatch_fallback_reason_counted(self):
        from repro import nn
        from repro.nn import functional as F
        from repro.tensor import TraceSession, Tensor

        rng = np.random.default_rng(0)
        model = nn.Linear(6, 3, rng=rng)
        session = TraceSession(model, F.mse_loss)

        def step(n):
            x = Tensor(rng.standard_normal((n, 6)).astype(np.float32))
            y = Tensor(rng.standard_normal((n, 3)).astype(np.float32))
            session.step((x,), y)
            for p in model.parameters():
                p.grad = None

        step(4)  # capture
        step(2)  # signature mismatch -> reason-tagged fallback
        counters = obs.registry.snapshot()["counters"]
        assert counters["tensor.trace.fallback.signature_mismatch"] == 1
        assert counters["tensor.trace.fallback"] >= 1

    def test_invalidate_reason_counted(self):
        from repro import nn
        from repro.nn import functional as F
        from repro.tensor import TraceSession, Tensor

        rng = np.random.default_rng(1)
        model = nn.Linear(6, 3, rng=rng)
        session = TraceSession(model, F.mse_loss)
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        y = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        session.step((x,), y)
        # swap a parameter identity: guard trips, trace invalidates
        model.weight = type(model.weight)(model.weight.data.copy())
        for p in model.parameters():
            p.grad = None
        session.step((x,), y)
        counters = obs.registry.snapshot()["counters"]
        assert (
            counters["tensor.trace.invalidate.parameter_or_module_mode_change"]
            == 1
        )
