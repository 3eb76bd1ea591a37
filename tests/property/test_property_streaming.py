"""Property tests: incremental streaming maintenance is *bit-identical*
to batch recomputation.

Two pinned equivalences, each across random batch splits (including
empty and duplicated batches), duplicate keys/values, and out-of-order
event times:

- **Aggregates** — a delta-maintained ``stream.aggregate`` equals a
  batch ``group_by(...).agg(...)`` recomputed over every appended
  batch, one partition per batch (``tests/stream_oracle.py``), for
  every aggregate kind.
- **Grid tensors** — ``STManager.update_st_grid_array`` applied per
  batch delta equals ``get_st_grid_array`` rebuilt from scratch.

A third pins the sorted form's growth: merging into reserved buffers
equals the whole-array ``np.insert`` + ``np.concatenate`` rebuild it
replaced (``tests/group_state_oracle.py``), array for array.

Comparisons use dtype checks plus ``np.testing.assert_array_equal``
(NaN-exact), never ``isclose``: the incremental paths must produce the
same bits, because both run the same ``ArrayGroupState`` merges in the
same order by construction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preprocessing.grid import STManager as stm
from repro.engine import Session, agg
from repro.engine.partition import Partition
from tests.group_state_oracle import OracleGroupState, SortedGroupState
from tests.stream_oracle import RecordingStream

# Event times from a coarse lattice and rounded values, so duplicate
# keys and values are common.
times = st.integers(min_value=0, max_value=120).map(lambda i: i * 0.5)
cells = st.integers(min_value=0, max_value=11)
values = st.integers(min_value=-40, max_value=40).map(lambda i: i * 0.25)

SCHEMA = [("t", np.float64), ("cell", np.int64), ("v", np.float64)]

ALL_SPECS = [
    agg.count(name="n"),
    agg.sum_("v"),
    agg.min_("v"),
    agg.max_("v"),
    agg.mean("v"),
]


@st.composite
def batched_records(draw):
    """A random record set cut into micro-batches: sizes may be zero
    (empty appends) and one batch may be appended twice (duplicate
    delivery)."""
    num_batches = draw(st.integers(min_value=1, max_value=6))
    batches = []
    for _ in range(num_batches):
        n = draw(st.integers(min_value=0, max_value=25))
        batches.append(
            {
                "t": np.asarray(
                    draw(st.lists(times, min_size=n, max_size=n)),
                    dtype=np.float64,
                ),
                "cell": np.asarray(
                    draw(st.lists(cells, min_size=n, max_size=n)),
                    dtype=np.int64,
                ),
                "v": np.asarray(
                    draw(st.lists(values, min_size=n, max_size=n)),
                    dtype=np.float64,
                ),
            }
        )
    if draw(st.booleans()) and batches:
        duplicate = draw(
            st.integers(min_value=0, max_value=len(batches) - 1)
        )
        batches.append({k: v.copy() for k, v in batches[duplicate].items()})
    return batches


def assert_identical(left: dict, right: dict):
    assert list(left) == list(right)
    for name in left:
        assert left[name].dtype == right[name].dtype, name
        np.testing.assert_array_equal(left[name], right[name], err_msg=name)


@settings(max_examples=40, deadline=None)
@given(batched_records())
def test_incremental_aggregates_equal_recompute(batches):
    stream = RecordingStream(Session().stream(SCHEMA))
    live = stream.aggregate(["cell"], ALL_SPECS)
    for batch in batches:
        stream.append(batch)
    assert_identical(
        dict(live.to_partition().columns),
        stream.recompute(live).to_columns(),
    )


@settings(max_examples=40, deadline=None)
@given(batched_records())
def test_incremental_multikey_aggregates_equal_recompute(batches):
    stream = RecordingStream(Session().stream(SCHEMA))
    live = stream.aggregate(["cell", "t"], [agg.count(name="n"), agg.mean("v")])
    for batch in batches:
        stream.append(batch)
    assert_identical(
        dict(live.to_partition().columns),
        stream.recompute(live).to_columns(),
    )


@settings(max_examples=25, deadline=None)
@given(batched_records())
def test_incremental_grid_tensor_equals_rebuild(batches):
    px, py = 4, 3
    stream = RecordingStream(Session().stream(
        [("time_step", np.int64), ("cell_id", np.int64), ("v", np.float64)]
    ))
    live = stream.aggregate(
        ["time_step", "cell_id"],
        [agg.count(name="count"), agg.sum_("v"), agg.mean("v")],
    )
    channels = ["count", "sum_v", "mean_v"]
    tensor = np.zeros((1, py, px, len(channels)), dtype=np.float32)
    for batch in batches:
        stream.append(
            {
                "time_step": (batch["t"] // 8.0).astype(np.int64),
                "cell_id": batch["cell"] % (px * py),
                "v": batch["v"],
            }
        )
        tensor = stm.update_st_grid_array(
            tensor, live.delta(), px, py, value_columns=channels
        )
    rebuilt = stm.get_st_grid_array(
        stream.recompute(live),
        px,
        py,
        num_steps=tensor.shape[0],
        value_columns=channels,
    )
    assert tensor.shape == rebuilt.shape
    assert tensor.dtype == rebuilt.dtype
    np.testing.assert_array_equal(tensor, rebuilt)
    stm.release_st_grid_array(rebuilt)


@st.composite
def insert_rounds(draw):
    """Batches of group keys placed against the keys merged so far — in
    front of them, interleaved between them or past the end — with
    keys already present mixed in.  One or two key columns; the key
    dtype is drawn per batch, so the state widens mid-stream."""
    present = sorted(
        set(draw(st.lists(st.integers(0, 60).map(lambda i: 4 * i), min_size=1)))
    )
    batches = [present]
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        lo, hi = present[0], present[-1]
        where = draw(st.sampled_from(["front", "interleaved", "end"]))
        low, high = {
            "front": (lo - 40, lo - 1),
            "interleaved": (lo, hi),
            "end": (hi + 1, hi + 40),
        }[where]
        fresh = draw(st.lists(st.integers(low, high), min_size=1, max_size=12))
        again = draw(st.lists(st.sampled_from(present), max_size=6))
        batches.append(fresh + again)
        present = sorted(set(present).union(fresh))
    dtypes = draw(
        st.lists(
            st.sampled_from([np.int32, np.int64, np.float64]),
            min_size=len(batches),
            max_size=len(batches),
        )
    )
    weights = [
        np.asarray(draw(st.lists(values, min_size=len(b), max_size=len(b))))
        for b in batches
    ]
    return draw(st.booleans()), list(zip(batches, dtypes, weights))


@settings(max_examples=80, deadline=None)
@given(insert_rounds())
def test_buffered_insert_equals_copying_oracle(rounds):
    two_columns, batches = rounds
    state, oracle = SortedGroupState(ALL_SPECS), OracleGroupState(ALL_SPECS)
    for keys, dtype, weights in batches:
        k = np.asarray(keys, dtype=np.int64)
        # (k // 7, k % 7) orders as k does: two columns, same placements.
        columns = [k // 7, k % 7] if two_columns else [k]
        columns = [c.astype(dtype) for c in columns]
        part = Partition({"v": weights})
        np.testing.assert_array_equal(
            state.update(columns, part), oracle.update(columns, part)
        )
        got, want = state._arrays(), oracle._arrays()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert state.nbytes >= oracle.nbytes
    assert_identical(
        dict(state.to_partition(["a", "b"][: len(columns)]).columns),
        dict(oracle.to_partition(["a", "b"][: len(columns)]).columns),
    )
