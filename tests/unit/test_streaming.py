"""Unit tests for the incremental streaming layer
(:mod:`repro.engine.streaming`): stream ingestion, the live view,
delta-maintained aggregation, event-time windows with watermarks, and
the new mergeable aggregate kinds (var / std / count_distinct)."""

import numpy as np
import pytest

from repro.engine import Schema, Session, WindowSpec, agg, col
from repro.engine.streaming import WINDOW_COLUMN, DeltaState


def _session():
    return Session(default_parallelism=2)


def _schema():
    return [("t", np.float64), ("cell", np.int64), ("v", np.float64)]


class TestStreamIngestion:
    def test_append_coerces_to_schema_dtypes(self):
        stream = _session().stream(_schema())
        stream.append({"t": [1, 2], "cell": [0.0, 1.0], "v": [1, 2]})
        part = stream.source.batches[0]
        assert part.columns["t"].dtype == np.float64
        assert part.columns["cell"].dtype == np.int64
        assert part.columns["v"].dtype == np.float64

    def test_append_accepts_row_dicts_and_tuples(self):
        stream = _session().stream(_schema())
        stream.append([{"t": 1.0, "cell": 0, "v": 2.0}])
        stream.append([(2.0, 1, 3.0)])
        assert stream.source.num_rows == 2
        assert stream.batches_ingested == 2

    def test_append_missing_column_raises(self):
        stream = _session().stream(_schema())
        with pytest.raises(ValueError, match="missing columns"):
            stream.append({"t": [1.0], "cell": [0]})

    def test_append_returns_stats(self):
        stream = _session().stream(_schema())
        stats = stream.append(
            {"t": [1.0, 2.0], "cell": [0, 1], "v": [1.0, 2.0]}
        )
        assert stats["rows"] == 2
        assert stats["update_seconds"] >= 0.0

    def test_schema_object_accepted(self):
        schema = Schema(_schema())
        stream = _session().stream(schema)
        assert stream.schema is schema

    def test_empty_batch_is_fine(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(["cell"], [agg.count(name="n")])
        stats = stream.append({"t": [], "cell": [], "v": []})
        assert stats["rows"] == 0
        assert live.num_groups == 0


class TestStreamView:
    def test_view_is_live(self):
        stream = _session().stream(_schema())
        df = stream.view()
        stream.append({"t": [1.0], "cell": [0], "v": [1.0]})
        assert df.count() == 1
        stream.append({"t": [2.0], "cell": [1], "v": [2.0]})
        assert df.count() == 2

    def test_view_partitions_follow_batches(self):
        stream = _session().stream(_schema())
        stream.append({"t": [1.0, 2.0], "cell": [0, 1], "v": [1.0, 2.0]})
        stream.append({"t": [3.0], "cell": [2], "v": [3.0]})
        parts = list(stream.view().iter_partitions(optimize=False))
        assert [p.num_rows for p in parts] == [2, 1]

    def test_view_supports_engine_ops(self):
        stream = _session().stream(_schema())
        stream.append({"t": [1.0, 2.0], "cell": [0, 1], "v": [5.0, -1.0]})
        out = stream.view().filter(col("v") > 0).select("cell").to_columns()
        assert out["cell"].tolist() == [0]

    def test_retain_false_drops_history_but_feeds_aggregates(self):
        stream = _session().stream(_schema(), retain=False)
        live = stream.aggregate(["cell"], [agg.count(name="n")])
        stream.append({"t": [1.0, 2.0], "cell": [0, 0], "v": [1.0, 2.0]})
        assert stream.source.batches == []
        assert live.to_columns()["n"].tolist() == [2]
        with pytest.raises(ValueError, match="retain=False"):
            stream.view()


class TestDeltaMaintainedAggregation:
    def test_incremental_equals_recompute_bitwise(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(
            ["cell"],
            [
                agg.count(name="n"),
                agg.sum_("v"),
                agg.min_("v"),
                agg.max_("v"),
                agg.mean("v"),
                agg.var_("v"),
                agg.std_("v"),
                agg.count_distinct("v"),
            ],
        )
        rng = np.random.default_rng(7)
        for _ in range(6):
            n = int(rng.integers(0, 25))
            stream.append(
                {
                    "t": rng.uniform(0, 10, n),
                    "cell": rng.integers(0, 5, n),
                    "v": rng.normal(size=n).round(2),
                }
            )
        inc = live.to_partition().columns
        ref = live.recompute_dataframe().to_columns()
        assert list(inc) == list(ref)
        for name in inc:
            assert inc[name].dtype == ref[name].dtype, name
            np.testing.assert_array_equal(inc[name], ref[name], err_msg=name)

    def test_aggregate_registered_late_folds_in_history(self):
        stream = _session().stream(_schema())
        stream.append({"t": [1.0], "cell": [0], "v": [2.0]})
        stream.append({"t": [2.0], "cell": [0], "v": [4.0]})
        live = stream.aggregate(["cell"], [agg.mean("v")])
        assert live.to_columns()["mean_v"].tolist() == [3.0]

    def test_delta_contains_only_touched_groups(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(["cell"], [agg.count(name="n")])
        stream.append({"t": [1.0, 1.0], "cell": [0, 1], "v": [1.0, 1.0]})
        stream.append({"t": [2.0], "cell": [1], "v": [1.0]})
        delta = live.delta()
        assert delta.columns["cell"].tolist() == [1]
        assert delta.columns["n"].tolist() == [2]

    def test_snapshot_is_not_live_state(self):
        # Appends merge into the state's arrays in place; a snapshot
        # handed out earlier must not change under its holder.
        stream = _session().stream(_schema())
        live = stream.aggregate(
            ["cell"],
            [agg.count(name="n"), agg.sum_("v", "s"), agg.min_("v", "lo"),
             agg.max_("v", "hi"), agg.mean("v", "m")],
        )
        stream.append({"t": [1.0, 1.0], "cell": [0, 1], "v": [2.0, 3.0]})
        snapshots = [live.to_partition(), live.delta()]
        before = [{n: c.copy() for n, c in p.columns.items()} for p in snapshots]
        stream.append({"t": [2.0, 2.0], "cell": [0, 1], "v": [10.0, -10.0]})
        for snapshot, frozen in zip(snapshots, before):
            for name, column in snapshot.columns.items():
                np.testing.assert_array_equal(column, frozen[name], err_msg=name)
        assert live.to_columns()["s"].tolist() == [12.0, -7.0]

    def test_multi_key_and_changed_group_count(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(["cell", "t"], [agg.count(name="n")])
        stats = stream.append(
            {"t": [1.0, 1.0, 2.0], "cell": [0, 0, 0], "v": [0.0] * 3}
        )
        assert stats["changed_groups"] == 2
        assert live.num_groups == 2

    def test_object_keys_rejected(self):
        session = _session()
        stream = session.stream([("k", object), ("v", np.float64)])
        live = stream.aggregate(["k"], [agg.count(name="n")])
        assert live is not None
        with pytest.raises(TypeError, match="numeric group keys"):
            stream.append({"k": np.array(["a"], dtype=object), "v": [1.0]})

    def test_delta_state_empty_partitions(self):
        state = DeltaState(["k"], [agg.count(name="n")])
        out = state.to_partition()
        assert out.num_rows == 0
        assert state.delta_partition().num_rows == 0


class TestEventTimeWindows:
    def test_tumbling_assignment(self):
        spec = WindowSpec("t", size=10.0)
        idx, starts = spec.assign(np.array([0.0, 9.9, 10.0, 25.0]))
        assert idx.tolist() == [0, 1, 2, 3]
        assert starts.tolist() == [0.0, 0.0, 10.0, 20.0]

    def test_sliding_assignment_replicates_rows(self):
        spec = WindowSpec("t", size=10.0, slide=5.0)
        idx, starts = spec.assign(np.array([7.0]))
        assert idx.tolist() == [0, 0]
        assert sorted(starts.tolist()) == [0.0, 5.0]

    def test_invalid_window_spec(self):
        with pytest.raises(ValueError):
            WindowSpec("t", size=0.0)
        with pytest.raises(ValueError):
            WindowSpec("t", size=5.0, slide=10.0)

    def test_windowed_counts(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(
            ["cell"],
            [agg.count(name="n")],
            window=WindowSpec("t", size=10.0),
            watermark_delay=100.0,  # keep everything open
        )
        stream.append(
            {"t": [1.0, 5.0, 11.0], "cell": [0, 0, 0], "v": [0.0] * 3}
        )
        out = live.to_columns()
        assert out[WINDOW_COLUMN].tolist() == [0.0, 10.0]
        assert out["n"].tolist() == [2, 1]

    def test_watermark_drops_late_rows(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(
            [],
            [agg.count(name="n")],
            window=WindowSpec("t", size=10.0),
            watermark_delay=0.0,
        )
        stream.append({"t": [25.0], "cell": [0], "v": [0.0]})
        # Watermark is now 25: windows [0,10) and [10,20) are closed.
        stats = stream.append({"t": [3.0], "cell": [0], "v": [0.0]})
        assert stats["late_rows"] == 1
        assert live.rows_late == 1
        snap = live.snapshot_partition()
        assert snap.columns["n"].sum() == 1  # late row never counted

    def test_watermark_evicts_closed_windows(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(
            [],
            [agg.count(name="n"), agg.sum_("v")],
            window=WindowSpec("t", size=10.0),
            watermark_delay=5.0,
        )
        stream.append({"t": [1.0, 2.0], "cell": [0, 0], "v": [1.0, 2.0]})
        assert live.num_groups == 1
        stats = stream.append({"t": [30.0], "cell": [0], "v": [3.0]})
        # Watermark 25 closes [0,10): evicted into .closed, state keeps
        # only the open [30,40) window.
        assert stats["evicted_windows"] == 1
        assert live.num_groups == 1
        closed = live.closed[-1]
        assert closed.columns[WINDOW_COLUMN].tolist() == [0.0]
        assert closed.columns["n"].tolist() == [2]
        assert closed.columns["sum_v"].tolist() == [3.0]
        snap = live.snapshot_partition()
        assert snap.columns["n"].sum() == 3

    def test_in_window_late_arrival_still_merges(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(
            [],
            [agg.count(name="n")],
            window=WindowSpec("t", size=10.0),
            watermark_delay=10.0,
        )
        stream.append({"t": [12.0], "cell": [0], "v": [0.0]})
        # Watermark 2: [0,10) still open, so an out-of-order t=5 row
        # within the allowed delay merges normally.
        stats = stream.append({"t": [5.0], "cell": [0], "v": [0.0]})
        assert stats["late_rows"] == 0
        out = live.to_columns()
        assert out[WINDOW_COLUMN].tolist() == [0.0, 10.0]
        assert out["n"].tolist() == [1, 1]

    def test_windowed_recompute_dataframe_raises(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(
            [], [agg.count(name="n")], window=WindowSpec("t", size=10.0)
        )
        with pytest.raises(ValueError, match="batch-equivalent"):
            live.recompute_dataframe()


class TestNewAggregateKinds:
    def test_var_std_match_numpy(self):
        session = _session()
        rng = np.random.default_rng(3)
        k = rng.integers(0, 4, 100)
        v = rng.normal(size=100)
        df = session.create_dataframe({"k": k, "v": v}, num_partitions=3)
        out = (
            df.group_by("k")
            .agg(agg.var_("v"), agg.std_("v"))
            .order_by("k")
            .to_columns()
        )
        for i, g in enumerate(out["k"]):
            sel = v[k == g]
            assert np.isclose(out["var_v"][i], sel.var(ddof=1))
            assert np.isclose(out["std_v"][i], sel.std(ddof=1))

    def test_var_single_row_group_is_nan(self):
        session = _session()
        df = session.create_dataframe({"k": [1, 2, 2], "v": [5.0, 1.0, 3.0]})
        out = (
            df.group_by("k")
            .agg(agg.var_("v"), agg.std_("v"))
            .order_by("k")
            .to_columns()
        )
        assert np.isnan(out["var_v"][0]) and np.isnan(out["std_v"][0])
        assert out["var_v"][1] == 2.0

    def test_count_distinct(self):
        session = _session()
        df = session.create_dataframe(
            {"k": [1, 1, 1, 2], "v": [3.0, 3.0, 4.0, 3.0]}, num_partitions=3
        )
        out = (
            df.group_by("k")
            .agg(agg.count_distinct("v"))
            .order_by("k")
            .to_columns()
        )
        assert out["count_distinct_v"].dtype == np.int64
        assert out["count_distinct_v"].tolist() == [2, 1]

    def test_new_kinds_on_object_keys(self):
        session = _session()
        keys = np.empty(4, dtype=object)
        keys[:] = ["a", "a", "b", "b"]
        df = session.create_dataframe(
            {"k": keys, "v": [1.0, 3.0, 2.0, 2.0]}, num_partitions=2
        )
        out = df.group_by("k").agg(
            agg.var_("v"), agg.std_("v"), agg.count_distinct("v")
        ).to_columns()
        got = {
            k: (var, std, cd)
            for k, var, std, cd in zip(
                out["k"], out["var_v"], out["std_v"], out["count_distinct_v"]
            )
        }
        assert got["a"][0] == 2.0 and np.isclose(got["a"][1], np.sqrt(2.0))
        assert got["a"][2] == 2
        assert got["b"][0] == 0.0 and got["b"][2] == 1

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            agg.AggSpec("out", "x", "median")


class TestStreamObservability:
    def test_counters_and_gauges_advance(self):
        from repro import obs

        stream = _session().stream(_schema())
        stream.aggregate(["cell"], [agg.count(name="n")])
        before = obs.registry.counter("engine.stream.rows").value
        stream.append({"t": [1.0, 2.0], "cell": [0, 1], "v": [0.0, 0.0]})
        assert obs.registry.counter("engine.stream.rows").value == before + 2
        assert obs.registry.gauge("engine.stream.state_groups").value >= 2

    def test_update_latency_histogram_observes(self):
        from repro import obs

        hist = obs.registry.windowed_histogram("engine.stream.update_seconds")
        before = hist.summary().get("count", 0)
        stream = _session().stream(_schema())
        stream.append({"t": [1.0], "cell": [0], "v": [0.0]})
        assert hist.summary().get("count", 0) == before + 1
