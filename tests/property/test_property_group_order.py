"""Property test: a group-by emits its groups in key order.

The spatiotemporal converter does not sort: it requires its
``(time_step, cell_id)`` rows in time order and gets them from the
group-by that produced them.  So for numeric keys the group-by's
output must equal its own stable ``lexsort`` permutation
(``tests/plan_oracle.py::oracle_sorted``) bit for bit — in both forms
of ``ArrayGroupState`` (code-addressed and sorted, with a compaction
between merges), for int / bool / float keys with NaN, +-0.0 and
+-inf, one to three key columns, over many partitions; and the same
for a stream's ``to_partition()`` and ``delta()``.  Object keys are
dictionary-coded in first-seen order and are not covered.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Session, agg
from repro.engine.aggregates import ArrayGroupState
from repro.engine.partition import Partition
from tests.plan_oracle import oracle_sorted

SPECS = [agg.count(name="n"), agg.sum_("v", "s"), agg.min_("v", "lo")]
KEY_DTYPES = ["int64", "int8", "uint8", "bool", "float64"]
SPECIAL = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -2.0])
# Key spread per partition: "narrow" keeps integer keys code-addressed,
# "wide" puts them past the form's 8-slots-per-row bound, so a state
# with a wide partition after narrow ones compacts between merges.
SPREADS = {"narrow": 3, "wide": 1 << 20}


@st.composite
def grouped_frames(draw):
    dtypes = draw(st.lists(st.sampled_from(KEY_DTYPES), min_size=1, max_size=3))
    parts = draw(
        st.lists(
            st.tuples(st.integers(0, 25), st.sampled_from(sorted(SPREADS))),
            min_size=1,
            max_size=8,
        )
    )
    return dtypes, parts, draw(st.integers(0, 2**32 - 1))


def key_column(rng, dtype, rows, spread):
    if dtype == "float64":
        # Whole numbers (offset-coded) mixed with the special values
        # (dictionary-coded) in some partitions only.
        values = rng.integers(-spread, spread + 1, rows).astype(np.float64)
        if rng.random() < 0.5:
            special = rng.random(rows) < 0.5
            values[special] = rng.choice(SPECIAL, int(special.sum()))
        return values
    if dtype == "bool":
        return rng.random(rows) < 0.5
    info = np.iinfo(dtype)
    values = rng.integers(-spread, spread + 1, rows)
    return np.clip(values, info.min, info.max).astype(dtype)


def partitions(case):
    dtypes, parts, seed = case
    rng = np.random.default_rng(seed)
    out = []
    for rows, spread in parts:
        columns = {
            f"k{j}": key_column(rng, dtype, rows, SPREADS[spread])
            for j, dtype in enumerate(dtypes)
        }
        columns["v"] = rng.choice(SPECIAL, rows)
        out.append(Partition(columns))
    return [f"k{j}" for j in range(len(dtypes))], out


def assert_key_ordered(columns: dict, keys) -> None:
    reference = oracle_sorted(columns, keys)
    for name, arr in columns.items():
        assert arr.tobytes() == reference[name].tobytes(), name


def merge_in_order(case) -> list:
    """Merge the case's partitions into one state, checking the order
    after every merge; returns whether each merge left the state
    code-addressed."""
    keys, parts = partitions(case)
    state = ArrayGroupState(SPECS)
    forms = []
    for part in parts:
        state.update([part.columns[k] for k in keys], part)
        forms.append(state._code_counts is not None)
        assert_key_ordered(state.to_partition(keys).columns, keys)
    return forms


#: Code-addressed throughout; compacted by a wide partition after
#: narrow ones; sorted from the first merge.
FORM_CASES = [
    ((["int64", "int8"], [(20, "narrow"), (20, "narrow"), (15, "narrow")], 1),
     [True, True, True]),
    ((["int64"], [(20, "narrow"), (20, "wide"), (10, "narrow")], 2),
     [True, False, False]),
    ((["float64", "bool"], [(25, "narrow"), (25, "wide")], 3), [False, False]),
]


@np.errstate(invalid="ignore")
def test_examples_cover_both_forms():
    for case, forms in FORM_CASES:
        assert merge_in_order(case) == forms


@settings(max_examples=150, deadline=None)
@given(grouped_frames())
@np.errstate(invalid="ignore")
def test_group_state_emits_key_order(case):
    merge_in_order(case)


@settings(max_examples=60, deadline=None)
@given(grouped_frames())
@np.errstate(invalid="ignore")
def test_group_by_emits_key_order(case):
    keys, parts = partitions(case)
    columns = {
        name: np.concatenate([p.columns[name] for p in parts])
        for name in parts[0].columns
    }
    df = Session().create_dataframe(columns, num_partitions=len(parts))
    out = df.group_by(*keys).agg(*SPECS)
    assert out.num_partitions() == 1
    assert_key_ordered(out.to_columns(), keys)


@settings(max_examples=60, deadline=None)
@given(grouped_frames())
@np.errstate(invalid="ignore")
def test_stream_state_and_delta_emit_key_order(case):
    keys, parts = partitions(case)
    schema = [(name, arr.dtype) for name, arr in parts[0].columns.items()]
    stream = Session().stream(schema)
    live = stream.aggregate(keys, SPECS)
    for part in parts:
        stream.append(dict(part.columns))
        assert_key_ordered(live.to_partition().columns, keys)
        assert_key_ordered(live.delta().columns, keys)
