"""Unit tests for the incremental streaming layer
(:mod:`repro.engine.streaming`): stream ingestion, the live view,
and delta-maintained aggregation."""

import numpy as np
import pytest

from repro.engine import Schema, Session, agg, col
from repro.engine.streaming import DeltaState


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


class TestAggregateKinds:
    def test_unknown_kind_still_rejected(self):
        for kind in ("median", "var", "std"):
            with pytest.raises(ValueError, match="unknown aggregate"):
                agg.AggSpec("out", "x", kind)


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
