"""Non-perturbation property: observability must never change what
the engine or the trainer computes.

For randomly generated pipelines over random frames, results with the
obs layer enabled are **bit-identical** to results with it disabled,
and the root operator's recorded ``rows_out`` equals the size of the
collected result.  Training with obs on (DataLoader metering, op
counters) leaves the same model state as training with it off.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn, obs
from repro.core.training import Trainer, classification_batch
from repro.data import DataLoader
from repro.engine import Session, agg, col
from repro.engine.executor import iter_partitions
from repro.obs import PlanStats
from repro.optim import Adam


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=0, max_value=50))
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=5), min_size=n, max_size=n
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    parts = draw(st.integers(min_value=1, max_value=4))
    return keys, values, parts


@st.composite
def pipelines(draw):
    """A frame plus a random chain of lazy transformations."""
    frame = draw(frames())
    ops = draw(
        st.lists(
            st.sampled_from(
                ["filter", "with_column", "select", "limit", "group_by"]
            ),
            min_size=0,
            max_size=4,
        )
    )
    limit_n = draw(st.integers(min_value=0, max_value=30))
    threshold = draw(st.floats(min_value=-50, max_value=50, allow_nan=False))
    return frame, ops, limit_n, threshold


def _build(session, frame, ops, limit_n, threshold):
    keys, values, parts = frame
    df = session.create_dataframe(
        {
            "k": np.asarray(keys, dtype=np.int64),
            "v": np.asarray(values, dtype=np.float64),
        }
    )
    for op in ops:
        cols = set(df.columns)
        if op == "filter" and "v" in cols:
            df = df.filter(col("v") > threshold)
        elif op == "with_column" and "v" in cols:
            df = df.with_column("v2", col("v") * 2.0)
        elif op == "select" and {"k", "v"} <= cols:
            df = df.select("k", "v")
        elif op == "limit":
            df = df.limit(limit_n)
        elif op == "group_by" and {"k", "v"} <= cols:
            df = (
                df.group_by("k")
                .agg(agg.sum_("v", "v"), agg.count(name="n"))
            )
    return df


def _columns_of(df):
    """Fully materialized {name: array} via the public action path
    (which meters when obs is enabled)."""
    return df.to_columns()


@settings(max_examples=60, deadline=None)
@given(pipelines())
def test_traced_results_bit_identical_to_untraced(pipeline):
    frame, ops, limit_n, threshold = pipeline
    session = Session(default_parallelism=frame[2])
    df = _build(session, frame, ops, limit_n, threshold)

    obs.set_enabled(True)
    try:
        traced = _columns_of(df)
        with obs.disabled():
            untraced = _columns_of(df)
    finally:
        obs.set_enabled(True)

    assert set(traced) == set(untraced)
    for name in traced:
        a, b = traced[name], untraced[name]
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        # Bit-identical: compare raw bytes, which also treats NaNs as
        # equal to themselves.
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(pipelines())
def test_root_rows_out_matches_collected_size(pipeline):
    frame, ops, limit_n, threshold = pipeline
    session = Session(default_parallelism=frame[2])
    df = _build(session, frame, ops, limit_n, threshold)

    plan = df._execution_plan()
    stats = PlanStats()
    collected = 0
    for part in iter_partitions(plan, stats=stats):
        collected += part.num_rows
    root = stats.node(plan)
    assert root.rows_out == collected
    # A filter can empty individual partitions without merging them,
    # so partition count is bounded by what flowed in — not by the
    # collected row count.  At least one partition is always metered.
    assert root.partitions >= 1 or collected == 0


@settings(max_examples=40, deadline=None)
@given(pipelines())
def test_action_path_stats_agree_with_result(pipeline):
    frame, ops, limit_n, threshold = pipeline
    session = Session(default_parallelism=frame[2])
    df = _build(session, frame, ops, limit_n, threshold)

    rows = df.collect()
    stats = session.last_plan_stats
    assert stats is not None
    assert stats.node(session.last_plan).rows_out == len(rows)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**16))
def test_obs_disabled_training_bit_identical_state(seed):
    """The DataLoader metering and the op counters (obs on vs off)
    must not perturb training either."""
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(8, 1, 6, 6)).astype(np.float32)
    labels = rng.integers(0, 3, 8)

    def run():
        model = nn.Sequential(
            nn.Conv2d(1, 3, 3, padding=1, rng=seed),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(3, 3, rng=seed + 1),
        )
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=0.05),
            nn.CrossEntropyLoss(),
            classification_batch,
        )
        trainer.fit(DataLoader(list(zip(images, labels)), batch_size=4), epochs=1)
        return {name: p.data.tobytes() for name, p in model.named_parameters()}

    with_obs = run()
    with obs.disabled():
        without_obs = run()
    assert with_obs == without_obs
