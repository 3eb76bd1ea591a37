"""Engine edge cases: empty inputs, degenerate plans, odd shapes."""

import numpy as np
import pytest

from repro.engine import Session, agg, col
from repro.engine.partition import Partition
from repro.engine.schema import Field, Schema
from tests.group_state_oracle import SortedGroupState


@pytest.fixture
def session():
    return Session(default_parallelism=3)


@pytest.fixture
def empty(session):
    return session.create_dataframe(
        {"k": np.empty(0, dtype=np.int64), "v": np.empty(0, dtype=np.float64)}
    )


class TestEmptyInputs:
    def test_empty_count(self, empty):
        assert empty.count() == 0

    def test_empty_filter(self, empty):
        assert empty.filter(col("v") > 0).collect() == []

    def test_empty_select(self, empty):
        assert empty.select("k").count() == 0

    def test_empty_group_by(self, empty):
        assert empty.group_by("k").agg(agg.sum_("v", "s")).collect() == []

    @pytest.mark.parametrize("filtered", [False, True])
    def test_empty_group_by_keeps_dtypes(self, session, filtered):
        # Keys as the (empty) input had them, the dtypes a non-empty
        # result has for the aggregates.
        rows = 0 if not filtered else 5
        df = session.create_dataframe(
            {"k": np.arange(rows, dtype=np.int32), "v": np.ones(rows)}
        )
        if filtered:
            df = df.filter(col("v") > 1)
        out = df.group_by("k").agg(agg.count(), agg.sum_("v")).to_columns()
        assert {name: c.dtype for name, c in out.items()} == {
            "k": np.int32,
            "count": np.int64,
            "sum_v": np.float64,
        }
        assert all(len(c) == 0 for c in out.values())

    def test_empty_to_columns(self, empty):
        cols = empty.to_columns()
        assert set(cols) == {"k", "v"}

    def test_empty_show(self, empty):
        text = empty.show()
        assert "k" in text


class TestDegenerateArguments:
    def test_limit_zero(self, session):
        df = session.create_dataframe({"x": [1, 2, 3]})
        assert df.limit(0).count() == 0

    def test_limit_beyond_size(self, session):
        df = session.create_dataframe({"x": [1, 2, 3]})
        assert df.limit(100).count() == 3

    @pytest.mark.parametrize("n", [-1, 1.5, 2.0, "2"])
    def test_limit_rejects_negative_or_non_integer(self, session, n):
        """A negative limit used to return no rows and 1.5 used to
        truncate to 1; both are caller errors."""
        df = session.create_dataframe({"x": [1, 2, 3]})
        with pytest.raises(ValueError, match="limit"):
            df.limit(n)
        with pytest.raises(ValueError, match="limit"):
            df.take(n)

    def test_limit_takes_numpy_integers(self, session):
        df = session.create_dataframe({"x": [1, 2, 3]})
        assert df.limit(np.int64(2)).count() == 2

    def test_filter_all_out_then_group(self, session):
        df = session.create_dataframe({"k": [1, 2], "v": [1.0, 2.0]})
        out = df.filter(col("v") > 100).group_by("k").agg(agg.count())
        assert out.collect() == []

    def test_single_row_everything(self, session):
        df = session.create_dataframe({"k": [5], "v": [2.5]})
        assert df.collect() == [{"k": 5, "v": 2.5}]
        grouped = df.group_by("k").agg(agg.mean("v", "m")).collect()
        assert grouped[0]["m"] == 2.5

    def test_many_partitions_few_rows(self):
        session = Session(default_parallelism=10)
        df = session.create_dataframe({"x": [1, 2, 3]})
        assert df.count() == 3

    def test_chained_with_columns_replace(self, session):
        df = session.create_dataframe({"x": [1.0]})
        out = (
            df.with_column("x", col("x") + 1)
            .with_column("x", col("x") * 10)
        )
        assert out.collect() == [{"x": 20.0}]
        assert out.columns == ["x"]


class TestMixedDtypes:
    def test_group_key_float(self, session):
        df = session.create_dataframe(
            {"k": [1.5, 1.5, 2.5], "v": [1.0, 2.0, 3.0]}
        )
        rows = df.group_by("k").agg(agg.sum_("v", "s")).collect()
        assert rows[0]["s"] == 3.0 and rows[1]["s"] == 3.0

    def test_mixed_int_float_keys(self, session):
        # Group key columns of different dtypes are stacked to float.
        df = session.create_dataframe(
            {"a": np.array([1, 1, 2], dtype=np.int64),
             "b": np.array([0.5, 0.5, 0.5]),
             "v": [1.0, 2.0, 3.0]}
        )
        rows = df.group_by("a", "b").agg(agg.count(name="n")).collect()
        counts = {r["a"]: r["n"] for r in rows}
        assert counts == {1: 2, 2: 1}

    def test_bool_filter_column(self, session):
        df = session.create_dataframe(
            {"flag": np.array([True, False, True]), "v": [1.0, 2.0, 3.0]}
        )
        assert df.filter(col("flag")).count() == 2


class TestNaNGroupKeys:
    """All NaN of a key column are one key, sorted last, whatever the
    number of key columns — in batch and in streaming."""

    COLUMNS = {
        "a": np.array([np.nan, 1.0, np.nan, np.nan, 1.0]),
        "b": np.array([1.0, np.nan, 1.0, 2.0, np.nan]),
        "c": np.array([7, 7, 7, 7, 7], dtype=np.int64),
        "v": np.array([1.0, 2.0, 4.0, 8.0, 16.0]),
    }
    EXPECTED = {
        ("a",): [(1.0, 18.0), (np.nan, 13.0)],
        ("a", "b"): [(1.0, np.nan, 18.0), (np.nan, 1.0, 5.0), (np.nan, 2.0, 8.0)],
        ("c", "a", "b"): [
            (7, 1.0, np.nan, 18.0), (7, np.nan, 1.0, 5.0), (7, np.nan, 2.0, 8.0),
        ],
    }

    @staticmethod
    def _rows(columns, keys):
        return list(zip(*(columns[k].tolist() for k in keys), columns["s"].tolist()))

    @pytest.mark.parametrize("keys", list(EXPECTED))
    @pytest.mark.parametrize("parts", [1, 2, 5])
    def test_batch(self, keys, parts):
        df = Session(default_parallelism=parts).create_dataframe(self.COLUMNS)
        out = df.group_by(*keys).agg(agg.sum_("v", "s")).to_columns()
        np.testing.assert_equal(self._rows(out, keys), self.EXPECTED[keys])

    @pytest.mark.parametrize("keys", list(EXPECTED))
    def test_stream_aggregate(self, session, keys):
        stream = session.stream(
            [(name, c.dtype) for name, c in self.COLUMNS.items()]
        )
        live = stream.aggregate(list(keys), [agg.sum_("v", "s")])
        for cut in (slice(0, 2), slice(2, 3), slice(3, 5)):
            stream.append({n: c[cut] for n, c in self.COLUMNS.items()})
        np.testing.assert_equal(
            self._rows(live.to_columns(), keys), self.EXPECTED[keys]
        )
        # The last append's NaN groups found the ones already in state.
        assert live.delta().num_rows == 2


class TestMergeInPlace:
    def test_batch_without_new_groups_rebuilds_nothing(self):
        # The sorted form's in-place scatter (these keys would otherwise
        # be held code-addressed, whose arrays are built on each read).
        state = SortedGroupState(
            [agg.count(), agg.sum_("v"), agg.min_("v"), agg.max_("v")]
        )

        def merge(steps, cells):
            part = Partition({"v": np.arange(len(steps), dtype=np.float64)})
            return state.update([np.asarray(steps), np.asarray(cells)], part)

        merge([0, 0, 1, 2], [5, 6, 5, 5])
        merge([1, 3], [6, 5])  # inserts (1, 6) and (3, 5)
        def arrays():
            return [state.keys, state.counts, state.values[1],
                    state.values[2], state.values[3]]

        before = arrays()
        sums = state.values[1].copy()
        assert merge([3, 0, 0], [5, 6, 6]) == 2
        assert state.touched().keys.tolist() == [[0, 6], [3, 5]]
        assert state.keys.tolist() == [[0, 5], [0, 6], [1, 5], [1, 6], [2, 5], [3, 5]]
        assert all(a is b for a, b in zip(before, arrays()))
        assert state.counts.tolist() == [1, 3, 1, 1, 1, 2]
        assert (state.values[1] - sums).tolist() == [0.0, 3.0, 0.0, 0.0, 0.0, 0.0]


class TestGroupKeyDtypes:
    """Group-by key columns come back in their input dtype."""

    def test_bool_key_next_to_int_key_stays_bool(self, session):
        df = session.create_dataframe(
            {"b": np.array([True, False, True, True]),
             "i": np.array([1, 1, 2, 1], dtype=np.int64)}
        )
        out = df.group_by("b", "i").agg(agg.count(name="n")).to_columns()
        assert out["b"].dtype == np.bool_
        assert out["i"].dtype == np.int64
        got = dict(zip(zip(out["b"].tolist(), out["i"].tolist()), out["n"]))
        assert got == {(False, 1): 1, (True, 1): 2, (True, 2): 1}

    def test_narrow_numeric_keys_do_not_widen(self, session):
        df = session.create_dataframe(
            {"i": np.array([3, 3, 7], dtype=np.int32),
             "f": np.array([0.5, 0.5, 1.5], dtype=np.float32)}
        )
        out = df.group_by("i", "f").agg(agg.count(name="n")).to_columns()
        assert out["i"].dtype == np.int32
        assert out["f"].dtype == np.float32
        assert out["i"].tolist() == [3, 7]
        assert out["f"].tolist() == [0.5, 1.5]

    @pytest.mark.parametrize("name_dtype", ["<U5", object])
    def test_float_key_next_to_string_key_stays_float(self, session, name_dtype):
        df = session.create_dataframe(
            {"f": np.array([0.5, 0.5, 2.5]),
             "name": np.array(["ab", "ab", "cd"], dtype=name_dtype)}
        )
        out = df.group_by("f", "name").agg(agg.count(name="n")).to_columns()
        assert out["f"].dtype == np.float64
        assert out["name"].dtype == np.dtype(name_dtype)
        assert out["f"].tolist() == [0.5, 2.5]
        assert out["name"].tolist() == ["ab", "cd"]
        assert out["n"].tolist() == [2, 1]


class TestGroupKeyDtypeSwitch:
    """A key column whose dtype changes from one partition to the next
    (only reachable through ``from_partitions``)."""

    @staticmethod
    def _group(session, key_chunks):
        parts = [
            Partition({"k": k, "v": np.ones(len(k))}) for k in key_chunks
        ]
        schema = Schema([Field("k", np.int64), Field("v", np.float64)])
        df = session.from_partitions([lambda p=p: p for p in parts], schema)
        out = df.group_by("k").agg(agg.sum_("v", "s")).to_columns()
        return out["k"], dict(zip(out["k"].tolist(), out["s"].tolist()))

    def test_int_then_real_strings_recodes(self, session):
        later = np.empty(3, dtype=object)
        later[:] = [3, "x", "x"]
        keys, sums = self._group(
            session, [np.array([1, 3, 3], dtype=np.int64), later]
        )
        assert keys.dtype == object
        assert sums == {1: 1.0, 3: 3.0, "x": 2.0}

    def test_int_then_object_ints_merges_groups(self, session):
        keys, sums = self._group(
            session,
            [np.array([1, 3], dtype=np.int64), np.array([1, 3], dtype=object)],
        )
        assert sums == {1: 2.0, 3: 2.0}

    def test_strings_then_ints(self, session):
        first = np.empty(2, dtype=object)
        first[:] = ["x", 1]
        keys, sums = self._group(
            session, [first, np.array([1, 2], dtype=np.int64)]
        )
        assert keys.dtype == object
        assert sums == {"x": 1.0, 1: 2.0, 2: 1.0}
