"""CSV scan/write and schema inference."""

import numpy as np
import pytest

from repro.engine import Session
from repro.engine.io_csv import infer_csv_schema, write_csv
from repro.engine.schema import Schema


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "data.csv"
    lines = ["id,value,name"]
    for i in range(25):
        lines.append(f"{i},{i * 0.5},row{i}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSchemaInference:
    def test_types(self, csv_file):
        schema = infer_csv_schema(csv_file)
        assert schema["id"].dtype == np.int64
        assert schema["value"].dtype == np.float64
        assert schema["name"].dtype == object

    def test_no_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,2.5\n3,4.5\n")
        schema = infer_csv_schema(str(path), header=False)
        assert schema.names == ["c0", "c1"]
        assert schema["c0"].dtype == np.int64


class TestScan:
    def test_roundtrip_values(self, csv_file):
        session = Session()
        df = session.read_csv(csv_file)
        rows = df.collect()
        assert len(rows) == 25
        assert rows[3] == {"id": 3, "value": 1.5, "name": "row3"}

    def test_partitioned_scan(self, csv_file):
        session = Session()
        df = session.read_csv(csv_file, rows_per_partition=10)
        assert df.num_partitions() == 3
        assert df.count() == 25

    def test_scan_is_lazy(self, csv_file, tmp_path):
        session = Session()
        df = session.read_csv(csv_file, rows_per_partition=10)
        # Plan built; deleting the file now breaks only execution.
        import os

        os.remove(csv_file)
        with pytest.raises(FileNotFoundError):
            df.count()

    def test_blank_lines_are_skipped(self, tmp_path):
        # csv.reader yields [] for a blank or trailing empty line; the
        # row ranges still count it, so it must vanish inside one.
        path = tmp_path / "blank.csv"
        path.write_text("a,b\n1,2\n\n3,4\n\n")
        df = Session().read_csv(str(path), rows_per_partition=2)
        assert df.collect() == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]

    def test_filter_pushdown_streaming(self, csv_file):
        from repro.engine.expressions import col

        session = Session()
        df = session.read_csv(csv_file, rows_per_partition=5)
        assert df.filter(col("id") >= 20).count() == 5


class TestWrite:
    def test_write_read_roundtrip(self, tmp_path):
        session = Session(default_parallelism=2)
        df = session.create_dataframe({"a": np.arange(7), "b": np.arange(7) * 1.5})
        out = str(tmp_path / "out.csv")
        count = write_csv(df, out)
        assert count == 7
        again = session.read_csv(out)
        assert [r["a"] for r in again.collect()] == list(range(7))


class TestSchemaClass:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema([("a", np.int64), ("a", np.float64)])

    def test_lookup_and_errors(self):
        schema = Schema([("a", np.int64)])
        assert schema["a"].dtype == np.int64
        with pytest.raises(KeyError):
            schema["b"]

