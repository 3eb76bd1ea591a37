"""Unit tests for the incremental streaming layer
(:mod:`repro.engine.streaming`): stream ingestion, a stream that keeps
no history, delta-maintained aggregation held to a batch recompute
(``tests/stream_oracle.py``), rejected batches and registrations, the
reserved buffers the sorted group state inserts into, and the
code-addressed state's transitions and memory accounting."""

import warnings

import numpy as np
import pytest

from repro.engine import Schema, Session, agg, executor
from repro.engine.aggregates import ArrayGroupState
from repro.engine.partition import Partition
from repro.engine.streaming import DeltaState
from repro.utils.memory import MemoryMeter
from tests.group_state_oracle import OracleGroupState, SortedGroupState
from tests.stream_oracle import RecordingStream


def _session():
    return Session(default_parallelism=2)


def _schema():
    return [("t", np.float64), ("cell", np.int64), ("v", np.float64)]


class TestStreamIngestion:
    def test_append_coerces_to_schema_dtypes(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(["cell"], [agg.sum_("t"), agg.sum_("v")])
        batch = {"t": [1, 2], "cell": [0.0, 1.0], "v": [1, 2]}
        part = stream._coerce(batch)
        assert part.columns["t"].dtype == np.float64
        assert part.columns["cell"].dtype == np.int64
        assert part.columns["v"].dtype == np.float64
        stream.append(batch)
        out = live.to_columns()
        assert out["cell"].dtype == np.int64
        assert out["sum_v"].tolist() == [1.0, 2.0]

    def test_append_accepts_row_dicts_and_tuples(self):
        stream = _session().stream(_schema())
        live = stream.aggregate(["cell"], [agg.sum_("v")])
        stream.append([{"t": 1.0, "cell": 0, "v": 2.0}])
        stream.append([(2.0, 1, 3.0)])
        assert stream.rows_ingested == 2
        assert stream.batches_ingested == 2
        assert live.to_columns()["sum_v"].tolist() == [2.0, 3.0]

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
    """A stream keeps no view of its history: only its aggregations
    hold state."""

    def test_retain_false_drops_history_but_feeds_aggregates(self):
        stream = _session().stream(_schema(), retain=False)
        live = stream.aggregate(["cell"], [agg.count(name="n")])
        stream.append({"t": [1.0, 2.0], "cell": [0, 0], "v": [1.0, 2.0]})
        assert live.to_columns()["n"].tolist() == [2]
        with pytest.raises(ValueError, match="retain=True"):
            _session().stream(_schema(), retain=True)


class TestDeltaMaintainedAggregation:
    def test_incremental_equals_recompute_bitwise(self):
        stream = RecordingStream(_session().stream(_schema()))
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
        ref = stream.recompute(live).to_columns()
        assert list(inc) == list(ref)
        for name in inc:
            assert inc[name].dtype == ref[name].dtype, name
            np.testing.assert_array_equal(inc[name], ref[name], err_msg=name)

    def test_aggregate_registered_after_an_append_raises(self):
        # The stream keeps no history: a late aggregation would count
        # only the later batches (n = 1 here, not 3).
        stream = _session().stream([("t", np.int64), ("c", np.int64)])
        early = stream.aggregate(["c"], [agg.count(name="n")])
        stream.append({"t": [1, 1], "c": [2, 2]})
        with pytest.raises(ValueError, match="before the first append"):
            stream.aggregate(["c"], [agg.count(name="n")])
        assert stream.aggregations == [early]
        stream.append({"t": [1], "c": [2]})
        assert early.to_columns()["n"].tolist() == [3]

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
        # At registration, from the schema: an append can no longer
        # merge into one aggregation and then fail on the next.
        session = _session()
        stream = session.stream(
            [("k", object), ("cell", np.int64), ("v", np.float64)]
        )
        live = stream.aggregate(["cell"], [agg.sum_("v")])
        with pytest.raises(TypeError, match="numeric group keys.*'k'"):
            stream.aggregate(["k"], [agg.count(name="n")])
        with pytest.raises(TypeError, match="'k'"):
            stream.aggregate(["cell"], [agg.mean("k")])
        assert stream.aggregations == [live]
        stream.append(
            {"k": np.array(["a", "b"], dtype=object), "cell": [0, 1], "v": [1.0, 2.0]}
        )
        assert stream.batches_ingested == 1
        assert live.to_columns()["sum_v"].tolist() == [1.0, 2.0]

    def test_unknown_column_rejected_at_registration(self):
        stream = _session().stream(_schema())
        with pytest.raises(KeyError, match="'nope'"):
            stream.aggregate(["nope"], [agg.count(name="n")])
        with pytest.raises(KeyError, match="'w'"):
            stream.aggregate(["cell"], [agg.max_("w")])
        assert stream.aggregations == []

    def test_delta_after_empty_append_keeps_dtypes(self):
        stream = _session().stream(
            [("time_step", np.int64), ("cell_id", np.int64), ("v", np.float64)]
        )
        live = stream.aggregate(
            ["time_step", "cell_id"], [agg.count(name="count"), agg.mean("v")]
        )
        empty = {"time_step": [], "cell_id": [], "v": []}
        want = {
            "time_step": np.int64,
            "cell_id": np.int64,
            "count": np.int64,
            "mean_v": np.float64,
        }
        for part in (live.delta(), live.to_partition()):  # before any append
            assert {n: c.dtype for n, c in part.columns.items()} == want
        for batch in (empty, {"time_step": [3], "cell_id": [7], "v": [1.0]}, empty):
            stream.append(batch)
            for part in (live.delta(), live.to_partition()):
                assert {n: c.dtype for n, c in part.columns.items()} == want
        assert live.delta().num_rows == 0

    def test_delta_state_empty_partitions(self):
        state = DeltaState(["k"], [agg.count(name="n")], [np.int64])
        out = state.to_partition()
        assert out.num_rows == 0
        assert out.columns["k"].dtype == np.int64
        assert state.delta_partition().num_rows == 0


class TestRejectedBatches:
    """A batch the schema rejects raises before any aggregation or any
    counter has moved."""

    GOOD = {"t": [1.0, 2.0, 3.0], "cell": [4, 0, 4], "v": [1.0, -2.0, 0.5]}
    BAD = {
        "nan time": ({"t": [5.0], "cell": [np.nan], "v": [1.0]}, "'cell'"),
        "inf time": ({"t": [5.0], "cell": [-np.inf], "v": [1.0]}, "'cell'"),
        "out of range": ({"t": [5.0], "cell": [1e30], "v": [1.0]}, "'cell'"),
        "missing column": ({"t": [5.0], "cell": [7]}, "missing columns"),
        "string value": ({"t": [5.0], "cell": [7], "v": ["x"]}, "x"),
        "2-D column": (
            {"t": [5.0, 6.0], "cell": [7, 8], "v": [[1.0], [2.0]]},
            "'v'.*1-D",
        ),
        "0-d batch": ({"t": 5.0, "cell": 7, "v": 1.0}, "'t'.*1-D"),
        "fractional key": (
            {"t": [5.0], "cell": [1.5], "v": [1.0]},
            "'cell'.*fractional",
        ),
        "long row": ([(5.0, 7, 1.0), (5.0, 7, 1.0, 99)], "row 1 has 4 values.*3 fields"),
        "short row": ([(5.0, 7)], "row 0 has 2 values.*3 fields"),
        "extra column": (
            {"t": [5.0], "cell": [7], "v": [1.0], "celll": [5]},
            r"\['celll'\] the schema does not name",
        ),
        "extra partition column": (
            Partition({
                "t": np.array([5.0]), "cell": np.array([7]),
                "v": np.array([1.0]), "w": np.array([2.0]),
            }),
            r"\['w'\] the schema does not name",
        ),
        "extra row-dict key": (
            [{"t": 5.0, "cell": 7, "v": 1.0}, {"t": 6.0, "cell": 7, "v": 1.0, "vv": 0}],
            r"\['vv'\] the schema does not name",
        ),
    }

    @staticmethod
    def _observed(stream):
        from repro import obs

        return {
            "aggregations": [
                (
                    {n: c.copy() for n, c in live.to_partition().columns.items()},
                    {n: c.copy() for n, c in live.delta().columns.items()},
                    live.rows_ingested,
                )
                for live in stream.aggregations
            ],
            "stream": (stream.batches_ingested, stream.rows_ingested),
            "counters": [
                obs.registry.counter(f"engine.stream.{name}").value
                for name in ("batches", "rows")
            ],
        }

    @pytest.mark.parametrize("case", list(BAD))
    def test_rejected_batch_changes_nothing(self, case):
        batch, message = self.BAD[case]
        stream = _session().stream(_schema())
        stream.aggregate(["cell"], [agg.count(name="n"), agg.min_("v")])
        stream.aggregate(["t", "cell"], [agg.mean("v"), agg.max_("v")])
        stream.append(self.GOOD)
        before = self._observed(stream)
        with pytest.raises(ValueError, match=message):
            stream.append(batch)
        np.testing.assert_equal(self._observed(stream), before)
        stream.append(self.GOOD)  # still ingesting
        assert stream.batches_ingested == 2

    def test_nan_time_step_never_becomes_a_group(self):
        stream = _session().stream(
            [("time_step", np.int64), ("cell_id", np.int64), ("v", np.float64)]
        )
        live = stream.aggregate(["time_step"], [agg.count(name="n")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a typed error, not a warning
            with pytest.raises(ValueError, match="'time_step'.*int64"):
                stream.append(
                    {"time_step": [np.nan, 2.0], "cell_id": [0, 1], "v": [1.0, 1.0]}
                )
        assert live.num_groups == 0
        stream.append({"time_step": [2.0], "cell_id": [1], "v": [1.0]})
        assert live.to_columns()["time_step"].tolist() == [2]


class TestReservedGroupBuffers:
    """The sorted form inserts into reserved buffers: a tail insert
    that fits moves no head row, and ``nbytes`` counts the capacity.
    These keys would be held code-addressed, so the streams here run
    ``SortedGroupState``, the engine's sorted form."""

    SPECS = [agg.count(name="n"), agg.sum_("v"), agg.min_("v"), agg.max_("v")]

    @staticmethod
    def _sorted_stream():
        stream = _session().stream(_schema(), retain=False)
        live = stream.aggregate(["cell"], TestReservedGroupBuffers.SPECS)
        live.delta_state.state = SortedGroupState(TestReservedGroupBuffers.SPECS)
        return stream, live

    @staticmethod
    def _batch(cells):
        cells = np.asarray(list(cells), dtype=np.int64)
        return {
            "t": np.zeros(len(cells)),
            "cell": cells,
            "v": np.linspace(-1.0, 1.0, len(cells)),
        }

    def test_tail_insert_within_capacity_keeps_head_rows(self):
        stream, live = self._sorted_stream()
        state = live.delta_state.state
        stream.append(self._batch(range(100)))
        stream.append(self._batch(range(100, 110)))  # first insert reserves
        assert state.num_groups == 110
        assert len(state._buffers[0]) >= 113
        heads = [arr[:110].copy() for arr in state._arrays()]
        before = state._arrays()

        stream.append(self._batch([5, 112, 110, 111]))

        assert state.num_groups == 113
        untouched = np.arange(110) != 5
        for old, new, head in zip(before, state._arrays(), heads):
            assert np.shares_memory(old, new[:110])
            np.testing.assert_array_equal(new[:110][untouched], head[untouched])
        assert state.keys[-3:, 0].tolist() == [110, 111, 112]
        assert state.counts[[5, 110, 111, 112]].tolist() == [2, 1, 1, 1]

    def _merger(self):
        """``(state, merge)``: ``merge(*key_columns)`` merges into the
        state and into the copying oracle and checks they agree."""
        state = SortedGroupState(self.SPECS)
        oracle = OracleGroupState(self.SPECS)

        def merge(*columns):
            columns = [np.asarray(c, dtype=np.int64) for c in columns]
            part = Partition({"v": np.linspace(-1.0, 1.0, len(columns[0]))})
            got = state.update(columns, part)
            np.testing.assert_array_equal(got, oracle.update(columns, part))
            for arr, want in zip(state._arrays(), oracle._arrays()):
                assert arr.dtype == want.dtype
                np.testing.assert_array_equal(arr, want)

        return state, merge

    def test_insert_past_capacity_reallocates_and_matches_oracle(self):
        state, merge = self._merger()
        merge(range(0, 40, 2))
        merge([1, 3])
        capacity = len(state._buffers[0])
        # Fill the reserve exactly, in place, then one group past it.
        merge(range(41, 41 + 2 * (capacity - state.num_groups), 2))
        assert state.num_groups == capacity
        assert len(state._buffers[0]) == capacity
        first = state._buffers[0]
        merge([-1])
        assert state._buffers[0] is not first
        assert len(state._buffers[0]) > state.num_groups

    def test_repack_then_tail_insert_matches_oracle(self):
        # The second key column outgrows its span: every code changes,
        # while the new group still lands at the end of the state.
        state, merge = self._merger()
        merge([0, 1], [0, 0])
        merge([1], [1])  # reserves buffers
        codes = state._codes.copy()
        merge([1, 1], [5, 0])
        assert state._codes[:3].tolist() != codes.tolist()
        merge([1, 0], [2, 4])

    def test_nbytes_counts_reserved_capacity(self):
        stream, live = self._sorted_stream()
        state = live.delta_state.state
        for start in range(0, 400, 40):
            stream.append(self._batch(range(start, start + 40)))
        reserved = sum(buffer.nbytes for buffer in state._buffers)
        assert reserved > sum(arr.nbytes for arr in state._arrays())
        assert state.nbytes >= reserved

    def test_meter_returns_to_baseline_after_budgeted_group_by(self, monkeypatch):
        # Both forms: these keys stay code-addressed (200 codes for 50
        # rows a partition); the sorted form reserves insert buffers.
        columns = [
            {"k": np.arange(a, a + 50, dtype=np.int64), "v": np.ones(50)}
            for a in range(0, 200, 50)
        ]
        for form in (ArrayGroupState, SortedGroupState):
            monkeypatch.setattr(executor, "ArrayGroupState", form)
            meter = MemoryMeter()
            meter.allocate(100)  # somebody else's bytes stay put
            session = Session(meter=meter)
            factories = [lambda c=c: Partition(c) for c in columns]
            schema = Schema([("k", np.int64), ("v", np.float64)])
            out = (
                session.from_partitions(factories, schema)
                .group_by("k")
                .agg(*self.SPECS)
                .to_columns()
            )
            assert out["k"].tolist() == list(range(200))
            reference = form(self.SPECS)
            for c in columns:
                reference.update([c["k"]], Partition(c))
            if form is SortedGroupState:
                assert reference._buffers is not None
                held = reference._buffers
            else:
                assert reference._code_counts is not None
                held = [reference._code_counts, *reference._code_values]
            assert reference.nbytes >= sum(a.nbytes for a in held if a is not None)
            assert meter.peak >= 100 + reference.nbytes
            assert meter.current == 100


class TestCodeAddressedStream:
    """A miniature ``stream_ingest``: event time creeps forward, so the
    state starts code-addressed and re-packs as ``time_step`` outgrows
    its range.  With dense steps the highest code stays below 8 slots
    per group held, so the state stays code-addressed and its small
    batches merge by sorting their codes; with sparse steps (every
    10th) the codes outrun the groups and the state compacts into the
    sorted form once.  Every append must leave the same bits as the
    same stream held sorted throughout and as a recompute."""

    SCHEMA = [("time_step", np.int64), ("cell_id", np.int64), ("v", np.float64)]
    SPECS = [
        agg.count(name="count"),
        agg.sum_("v"),
        agg.min_("v"),
        agg.max_("v"),
        agg.mean("v", "mean_v"),
    ]

    @staticmethod
    def _assert_same_bits(got, want):
        assert list(got.columns) == list(want.columns)
        for name, column in got.columns.items():
            assert column.dtype == want.columns[name].dtype, name
            assert column.tobytes() == want.columns[name].tobytes(), name

    @np.errstate(invalid="ignore")
    def _stream(self, step: int):
        """Per append, ``(code-addressed?, packing, sorted a batch
        since the last re-pack?)`` of a stream whose time steps are
        multiples of ``step``."""
        from repro import obs

        gauge = obs.registry.gauge("engine.stream.state_groups")
        streams = []
        for form in (ArrayGroupState, SortedGroupState):
            stream = RecordingStream(_session().stream(self.SCHEMA))
            live = stream.aggregate(["time_step", "cell_id"], self.SPECS)
            live.delta_state.state = form(self.SPECS)
            streams.append((stream, live))
        state = streams[0][1].delta_state.state
        rng = np.random.default_rng(5)
        seen = []
        for k in range(36):
            rows = 0 if k == 4 else 50
            batch = {
                "time_step": step * np.maximum(k // 2 + rng.integers(-1, 2, rows), 0),
                "cell_id": rng.integers(0, 12, rows),
                "v": rng.choice([np.nan, -0.0, 0.0, np.inf, 1.25, -3.5], rows),
            }
            for stream, live in streams:
                stream.append(batch)
                assert gauge.value == live.num_groups
            (recording, live), (_, reference) = streams
            assert live.num_groups == reference.num_groups
            self._assert_same_bits(live.delta(), reference.delta())
            self._assert_same_bits(live.to_partition(), reference.to_partition())
            self._assert_same_bits(
                live.to_partition(),
                Partition(recording.recompute(live).to_columns()),
            )
            seen.append(
                (
                    state._code_counts is not None,
                    state._packing,
                    state._slot_ranks is not None,
                )
            )
        return seen

    def test_transitions_match_sorted_stream_and_recompute(self):
        # Dense steps: code-addressed throughout, re-packing, and
        # sorting the batches once the slots outnumber their rows 8:1.
        forms, packings, sorts = zip(*self._stream(1))
        assert all(forms)
        assert len({id(p) for p in packings}) > 1
        assert not sorts[0] and any(sorts)
        # Sparse steps: code-addressed first, sorted at the end, never
        # back.
        forms, _, _ = zip(*self._stream(10))
        addressed = forms.index(False)
        assert addressed > 0 and not any(forms[addressed:])

    def test_nbytes_counts_slot_rank_scratch(self):
        state = ArrayGroupState(self.SPECS)
        v = np.linspace(-1.0, 1.0, 400)
        state.update([np.arange(400) // 40, np.arange(400) % 40], Partition({"v": v}))
        slots = [state._code_counts, *state._code_values]
        assert state._slot_ranks is None
        assert state.nbytes == sum(a.nbytes for a in slots if a is not None)
        # 3 rows into 760 live slots: a sorting merge.
        steps, cells = np.array([3, 3, 9]), np.array([0, 1, 39])
        state.update([steps, cells], Partition({"v": v[:3]}))
        ranks = state._slot_ranks
        assert ranks.dtype == np.int32 and len(ranks) >= state._span
        held = sum(a.nbytes for a in slots if a is not None)
        assert state.nbytes == held + ranks.nbytes


class TestStateCost:
    """A stream holds group state, never rows: over a fixed key set
    its state's bytes stop growing once every group has arrived."""

    @pytest.mark.parametrize("form", [ArrayGroupState, SortedGroupState])
    def test_nbytes_after_200_appends_equals_after_20(self, form):
        specs = TestCodeAddressedStream.SPECS
        stream = _session().stream(TestCodeAddressedStream.SCHEMA)
        live = stream.aggregate(["time_step", "cell_id"], specs)
        live.delta_state.state = form(specs)
        rng = np.random.default_rng(11)
        steps, cells = np.divmod(np.arange(96), 12)  # every group at once
        stream.append({"time_step": steps, "cell_id": cells, "v": np.ones(96)})
        held = {}
        for k in range(1, 201):
            stream.append(
                {
                    "time_step": rng.integers(0, 8, 50),
                    "cell_id": rng.integers(0, 12, 50),
                    "v": rng.normal(size=50),
                }
            )
            if k in (20, 200):
                held[k] = live.delta_state.state.nbytes
        assert live.num_groups == 96
        assert stream.rows_ingested == 96 + 200 * 50
        assert held[200] == held[20] > 0


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

        hist = obs.registry.histogram("engine.stream.update_seconds")
        before = hist.count
        stream = _session().stream(_schema())
        stream.append({"t": [1.0], "cell": [0], "v": [0.0]})
        assert hist.count == before + 1
