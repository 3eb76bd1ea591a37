"""Golden-output regression tests for ``explain()`` and
``explain(analyze=True)``.

Operator labels and stat field order are part of the API surface
(tooling parses them), so the rendered trees are pinned verbatim —
with wall times masked, since those are the only nondeterministic
field.
"""

from __future__ import annotations

import re
import textwrap

import numpy as np
import pytest

from repro import obs
from repro.engine import Session, agg, col


def _op_counter(name: str) -> int:
    """A per-operator engine counter, ``engine.op.<Operator>.<field>``."""
    return obs.registry.snapshot()["counters"][f"engine.op.{name}"]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()


@pytest.fixture
def session():
    return Session(default_parallelism=2)


def mask_times(text: str) -> str:
    text = re.sub(r"time=\d+\.\d+ms", "time=*", text)
    text = re.sub(r"work=\d+\.\d+ms", "work=*", text)
    return re.sub(r"rows_per_s=\d+", "rows_per_s=*", text)


def filter_groupby_pipeline(session):
    frame = session.create_dataframe(
        {
            "k": np.r_[np.arange(10) % 3, np.arange(3)].astype(np.int64),
            "v": np.r_[np.arange(10), np.arange(3) + 1].astype(np.float64),
            "w": np.ones(13),
        },
        num_partitions=4,
    )
    return frame.filter(col("v") > 1).group_by("k").agg(agg.sum_("v", "s"))


class TestExplainGolden:
    def test_logical_plan_golden(self, session):
        df = filter_groupby_pipeline(session)
        expected = textwrap.dedent(
            """\
            GroupByAgg[keys=['k'], aggs=(s)]
              Filter[(v > lit(1))]
                Source[4 partitions]"""
        )
        assert df.explain() == expected

    def test_optimized_plan_golden(self, session):
        df = filter_groupby_pipeline(session)
        expected = textwrap.dedent(
            """\
            == Logical Plan ==
            GroupByAgg[keys=['k'], aggs=(s)]
              Filter[(v > lit(1))]
                Source[4 partitions]
            == Optimized Plan ==
            GroupByAgg[keys=['k'], aggs=(s)]
              Filter[(v > lit(1))]
                Project[k, v]
                  Source[4 partitions]"""
        )
        assert df.explain(optimized=True) == expected

    def test_analyze_golden(self, session):
        df = filter_groupby_pipeline(session)
        expected = textwrap.dedent(
            """\
            == Analyzed Plan ==
            GroupByAgg[keys=['k'], aggs=(s)]  (rows_in=10 rows_out=3 partitions=1 time=* peak_part_bytes=48)
              Filter[(v > lit(1))]  (rows_in=13 rows_out=10 partitions=4 time=* peak_part_bytes=48 work=* rows_per_s=*)
                Project[k, v]  (rows_in=13 rows_out=13 partitions=4 time=* peak_part_bytes=64 work=* rows_per_s=*)
                  Source[4 partitions]  (rows_out=13 partitions=4 time=* peak_part_bytes=96)"""
        )
        assert mask_times(df.explain(analyze=True)) == expected

    def test_analyze_is_deterministic_across_runs(self, session):
        df = filter_groupby_pipeline(session)
        first = mask_times(df.explain(analyze=True))
        second = mask_times(df.explain(analyze=True))
        assert first == second


class TestAnalyzeSemantics:
    def test_analyze_does_not_change_results(self, session):
        df = filter_groupby_pipeline(session)
        before = df.collect()
        df.explain(analyze=True)
        assert df.collect() == before

    def test_analyze_feeds_registry(self, session):
        filter_groupby_pipeline(session).explain(analyze=True)
        assert _op_counter("GroupByAgg.rows_out") == 3
        assert _op_counter("Project.rows_out") == 13
        assert _op_counter("Filter.rows_out") == 10
        assert _op_counter("Source.partitions") == 4

    def test_actions_record_last_plan_stats(self, session):
        df = filter_groupby_pipeline(session)
        rows = df.collect()
        stats = session.last_plan_stats
        assert stats is not None
        root_stats = stats.node(session.last_plan)
        assert root_stats.rows_out == len(rows)
        rendered = stats.render(session.last_plan)
        assert "GroupByAgg" in rendered and "rows_out=3" in rendered

    def test_disabled_obs_skips_plan_stats(self, session):
        df = filter_groupby_pipeline(session)
        with obs.disabled():
            df.collect()
        assert session.last_plan_stats is None

    def test_partially_consumed_action_still_flushes(self, session):
        df = session.create_dataframe({"id": np.arange(100)}, num_partitions=4)
        rows = df.take(5)
        assert len(rows) == 5
        assert _op_counter("Limit.rows_out") == 5
