"""The Partition container."""

import numpy as np
import pytest

from repro.engine.partition import Partition, _best_array
from repro.engine.schema import Schema


class TestConstruction:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            Partition({"a": np.zeros(2), "b": np.zeros(3)})

    def test_empty(self):
        part = Partition({})
        assert part.num_rows == 0

    def test_from_rows_tuples(self):
        part = Partition.from_rows([(1, "a"), (2, "b")], ["n", "s"])
        assert part.num_rows == 2
        assert part.columns["n"].dtype.kind == "i"
        assert part.columns["s"].dtype == object

    def test_from_rows_dicts(self):
        part = Partition.from_rows([{"n": 1}, {"n": 2}], ["n"])
        assert list(part.columns["n"]) == [1, 2]

    def test_empty_from_schema(self):
        schema = Schema([("a", np.int64), ("b", object)])
        part = Partition.empty(schema)
        assert part.num_rows == 0
        assert part.columns["a"].dtype == np.int64


class TestOperations:
    @pytest.fixture
    def part(self):
        return Partition(
            {"a": np.arange(5), "b": np.arange(5) * 1.5}
        )

    def test_with_column(self, part):
        out = part.with_column("c", part.columns["a"] * 10)
        assert "c" in out.columns
        assert "c" not in part.columns  # immutable original

    def test_take(self, part):
        assert part.take(2).num_rows == 2

    def test_rows(self, part):
        rows = list(part.rows())
        assert rows[1] == {"a": 1, "b": 1.5}

    def test_rows_equal_the_per_index_loop(self):
        objects = np.empty(3, dtype=object)
        objects[:] = ["a", None, (1, 2)]
        part = Partition(
            {
                "i": np.array([1, -2, 3], dtype=np.int32),
                "f": np.array([0.5, -0.0, np.inf]),
                "b": np.array([True, False, True]),
                "o": objects,
                "u": np.array([7, 8, 9], dtype=np.uint8),
            }
        )

        def typed(rows):
            return [[(k, type(v), repr(v)) for k, v in row.items()] for row in rows]

        loop = [
            {name: arr[i] for name, arr in part.columns.items()}
            for i in range(part.num_rows)
        ]
        assert typed(part.rows()) == typed(loop)
        assert list(Partition({"o": objects[:0], "f": np.empty(0)}).rows()) == []
        assert list(Partition._from_arrays({}, 3).rows()) == [{}, {}, {}]

    def test_concat(self, part):
        out = Partition.concat([part, part])
        assert out.num_rows == 10

    def test_concat_skips_empty(self, part):
        empty = Partition({"a": np.empty(0, dtype=np.int64),
                           "b": np.empty(0)})
        out = Partition.concat([empty, part])
        assert out.num_rows == 5

    def test_concat_all_empty_preserves_schema(self):
        empty = Partition({"a": np.empty(0, dtype=np.int64)})
        out = Partition.concat([empty, Partition({"a": np.empty(0, dtype=np.int64)})])
        assert out.num_rows == 0
        assert list(out.columns) == ["a"]
        assert out.columns["a"].dtype == np.int64

    def test_concat_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            Partition.concat([])

    def test_nbytes_object_columns_weighted(self):
        numeric = Partition({"a": np.zeros(100, dtype=np.float64)})
        objects = Partition(
            {"a": np.array(["x"] * 100, dtype=object)}
        )
        assert objects.nbytes > numeric.nbytes / 20

    def test_nbytes_counts_object_payloads(self):
        """Regression: a flat per-pointer constant undercounted object
        columns (1 KB strings estimated at 56 B/row), so the memory
        meter missed the payload size.  The estimate must land within
        2x of the pickled size."""
        import pickle

        strings = np.empty(200, dtype=object)
        strings[:] = [f"{i:06d}" + "x" * 994 for i in range(200)]
        part = Partition({"s": strings})
        pickled = len(pickle.dumps(strings))
        assert part.nbytes > 200 * 1000  # payloads actually counted
        assert pickled / 2 <= part.nbytes <= pickled * 2

    def test_nbytes_payload_sampling_handles_mixed_sizes(self):
        values = np.empty(640, dtype=object)
        values[:] = [("y" * 100 if i % 2 else "z") for i in range(640)]
        part = Partition({"s": values})
        # Strided sampling must not latch onto only-short or only-long
        # elements: the estimate stays within 4x of the exact payload.
        exact = sum(len(v) + 49 for v in values) + values.nbytes
        assert exact / 4 <= part.nbytes <= exact * 4

class TestBestArray:
    def test_numeric(self):
        assert _best_array([1, 2, 3]).dtype.kind == "i"
        assert _best_array([1.5, 2.0]).dtype.kind == "f"

    def test_strings_become_object(self):
        arr = _best_array(["a", "bb"])
        assert arr.dtype == object

    def test_mixed_objects(self):
        arr = _best_array([1, "a", None])
        assert arr.dtype == object

    def test_nested_sequences_stay_object(self):
        arr = _best_array([[1, 2], [3, 4]])
        assert arr.dtype == object
        assert arr.shape == (2,)

    def test_ragged(self):
        arr = _best_array([[1, 2], [3]])
        assert arr.dtype == object
