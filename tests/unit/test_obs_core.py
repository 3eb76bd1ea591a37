"""Unit tests for repro.obs: spans, metrics, registry."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.engine import Session, col
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracer import NULL_SPAN


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(True)


def _walk(span):
    """A span and every descendant, depth-first."""
    yield span
    for child in span.children:
        yield from _walk(child)


class TestSpans:
    def test_nesting_records_parent_child(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                inner.add("rows", 3)
        assert inner.parent is outer
        assert outer.children == [inner]
        assert outer.parent is None
        assert list(tracer.roots) == [outer]

    def test_elapsed_set_on_exit_and_contains_child(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            assert inner.elapsed_s >= 0.0
        assert outer.elapsed_s >= inner.elapsed_s

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["a", "b"]

    def test_counters_accumulate_on_span(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.add("rows", 2)
            span.add("rows", 3)
            span.set("stage", "load")
        assert span.counters == {"rows": 5}
        assert span.attrs == {"stage": "load"}

    def test_disabled_tracer_hands_out_null_span(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as span:
            span.add("rows", 1)
            span.set("k", "v")
        assert span is NULL_SPAN
        assert not tracer.roots

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tracer.roots] == ["boom"]
        with tracer.span("after"):  # nothing left open to nest under
            pass
        assert [s.name for s in tracer.roots] == ["boom", "after"]

    def test_roots_bounded(self):
        tracer = Tracer(max_roots=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots] == ["s6", "s7", "s8", "s9"]


class TestCrossThreadSpans:
    def test_explicit_parent_attaches_across_threads(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            def work():
                with tracer.span("worker", parent=outer) as span:
                    span.add("n", 1)

            threads = [threading.Thread(target=work) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(outer.children) == 3
        for child in outer.children:
            assert child.parent is outer
            assert child.thread_id != outer.thread_id

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

    def test_reset_drops_roots_and_open_stacks(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        span = tracer.start_span("open")
        tracer.reset()
        assert not tracer.roots
        with tracer.span("fresh"):  # "open" no longer parents it
            pass
        assert [s.name for s in tracer.roots] == ["fresh"]
        tracer.reset()
        tracer.end_span(span)
        with tracer.span("two"):
            pass
        assert [s.name for s in tracer.roots] == ["open", "two"]


class TestQuerySpans:
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

    def test_parallel_query_has_one_connected_span_tree(self):
        # Two user threads each run a query at the same time, in lock
        # step: a map_partitions body that opens a span per partition,
        # under a cache the query fills.  Each query's
        # partition spans are all reachable from (and correctly
        # parented under) its own single engine.query root, on its own
        # thread — the tracer's nesting stack is per thread.
        roots = {}
        lockstep = threading.Barrier(2)

        def body(part):
            lockstep.wait(timeout=30)
            with obs.tracer.span("test.partition"):
                return part

        def query(slot):
            session = Session(default_parallelism=4)
            cached = (
                self._frame(session, n=400)
                .with_column("w", col("v") * 3.0)
                .filter(col("v") >= 0.0)
                .map_partitions(body)
                .cache()
            )
            cached.collect()
            roots[slot] = session.last_query_span

        threads = [threading.Thread(target=query, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert sorted(roots) == [0, 1]
        assert roots[0].thread_id != roots[1].thread_id
        for root in roots.values():
            spans = list(_walk(root))
            assert root.name == "engine.query"
            # The fill runs the body once per partition.
            assert sum(s.name == "test.partition" for s in spans) == 4
            ids = {s.span_id for s in spans}
            for span in spans:
                assert span.thread_id == root.thread_id
                if span is root:
                    assert span.parent is None
                else:
                    assert span.parent is not None
                    assert span.parent.span_id in ids


class TestMetrics:
    def test_counter_int_and_float_increments(self):
        registry = MetricsRegistry()
        c = registry.counter("c")
        c.inc()
        c.inc(2)
        c.inc(0.5)
        assert c.value == 3.5
        assert registry.counter("c") is c  # get-or-create

    def test_gauge_set_and_set_max(self):
        registry = MetricsRegistry()
        g = registry.gauge("g")
        g.set(5)
        g.set(3)
        assert g.value == 3
        g.set_max(10)
        g.set_max(7)
        assert g.value == 10

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.count == 100
        assert h.total == 5050.0
        assert h.min == 1.0 and h.max == 100.0
        assert h.mean == 50.5
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        assert h.percentile(99) == pytest.approx(99.01)
        summary = h.summary()
        assert list(summary) == [
            "count", "nan_count", "sum", "min", "max", "mean", "p50", "p90",
            "p99",
        ]

    def test_histogram_decimation_keeps_exact_scalars(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", max_values=8)
        for v in range(100):
            h.observe(v)
        assert h.count == 100
        assert h.total == sum(range(100))
        assert h.min == 0.0 and h.max == 99.0
        assert len(h.values) <= 8

    def test_nan_is_counted_apart_and_poisons_nothing(self):
        h = MetricsRegistry().histogram("h")
        for v in (float("nan"), 1.0, 2.0, 3.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 3 and summary["nan_count"] == 1
        assert summary["sum"] == 6.0
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0
        assert not math.isnan(summary["p90"])
        assert not math.isnan(summary["p99"])

    def test_nan_after_decimation_leaves_percentiles_finite(self):
        h = MetricsRegistry().histogram("h", max_values=8)
        for v in range(100):
            h.observe(v)
        h.observe(float("nan"))
        h.observe(100.0)
        assert len(h.values) <= 8
        assert h.count == 101 and h.nan_count == 1
        assert h.total == sum(range(101))
        assert h.max == 100.0
        summary = h.summary()
        for key in ("p50", "p90", "p99"):
            assert 0.0 <= summary[key] <= 100.0

    def test_all_nan_histogram_reads_empty(self):
        h = MetricsRegistry().histogram("h")
        for _ in range(3):
            h.observe(float("nan"))
        summary = h.summary()
        assert summary["count"] == 0 and summary["nan_count"] == 3
        for key in ("min", "max", "mean", "p50", "p90", "p99"):
            assert summary[key] is None
        h.reset()
        assert h.nan_count == 0

    def test_empty_histogram_summary(self):
        h = MetricsRegistry().histogram("h")
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["p50"] is None and summary["mean"] is None

    def test_registry_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        c = registry.counter("c")
        g = registry.gauge("g")
        h = registry.histogram("h")
        c.inc(3)
        g.set(2)
        h.observe(1.0)
        registry.reset()
        assert registry.counter("c") is c and c.value == 0
        assert registry.gauge("g") is g and g.value == 0
        assert registry.histogram("h") is h and h.count == 0
        assert h.summary()["p50"] is None

    def test_snapshot_shape_and_sorted_names(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1)
        registry.histogram("h").observe(4.0)
        snap = registry.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"] == {"a": 2, "b": 1}
        assert snap["histograms"]["h"]["count"] == 1


class TestEnabledFlag:
    def test_disabled_makes_recording_noop(self):
        registry = MetricsRegistry()
        with obs.disabled():
            registry.counter("c").inc(5)
            registry.gauge("g").set(2)
            registry.histogram("h").observe(1.0)
        assert registry.counter("c").value == 0
        assert registry.gauge("g").value == 0
        assert registry.histogram("h").count == 0

    def test_disabled_restores_previous_state(self):
        assert obs.enabled()
        with obs.disabled():
            assert not obs.enabled()
            assert not obs.tracer.enabled
        assert obs.enabled()
        assert obs.tracer.enabled
