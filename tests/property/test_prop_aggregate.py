"""Property-based tests for the shared PPR aggregation core.

Any order of contributors x slices, with any set of redelivered
segments, must leave the rows equal to the plain fold of every
contributor's whole partial (the executor's oracle), report each slice
ready exactly when its last contributor merges it, and leave the state
untouched whenever a segment is rejected.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.recipe import RepairRecipe
from repro.errors import CodingError, StreamError
from repro.repair.aggregate import PartialAggregation, slice_bounds


def observe(agg):
    """Everything the core exposes, as comparable values."""
    try:
        chunk = agg.assemble().tobytes()
    except CodingError:
        chunk = None
    return (
        chunk,
        {row: buf.tobytes() for row, buf in agg.partial.items()},
        [agg.is_ready(i) for i in range(agg.num_slices)],
        [agg.missing(i) for i in range(agg.num_slices)],
        [agg.rows_in_slice(i) for i in range(agg.num_slices)],
        agg.complete,
    )


def bad_segments(agg, pending, rows, row_len):
    """Segments the core must reject; ``pending`` is a (contributor,
    slice) pair not merged yet, so the row checks are reached."""
    ones = np.ones(1, np.uint8)
    bad = [
        ("cs-stranger", 0, 0, {0: ones}),
        ("cs-self" if agg.own else "cs-00", agg.num_slices, 0, {0: ones}),
        ("cs-self" if agg.own else "cs-00", -1, 0, {0: ones}),
    ]
    if pending is None:
        return bad
    who, index = pending
    return bad + [
        (who, index, 0, {-1: ones}),
        (who, index, 0, {rows: ones}),
        (who, index, row_len, {0: ones}),
        (who, index, -1, {0: ones}),
        # The first row is fine, the last is not: nothing may be applied.
        (who, index, 0, {0: ones, rows: ones}),
        (who, index, 0, {0: ones, rows - 1: np.ones(row_len + 1, np.uint8)}),
    ]


@st.composite
def scenarios(draw):
    rows = draw(st.integers(1, 3))
    num_slices = draw(st.integers(1, 9))
    row_len = draw(st.integers(1, 24))
    children = [f"cs-{i:02d}" for i in range(draw(st.integers(0, 3)))]
    own = draw(st.sampled_from([None, "cs-self"]))
    if not children and own is None:
        own = "cs-self"
    contributors = children + ([own] if own else [])
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    wholes = {}
    for name in contributors:
        present = draw(
            st.lists(st.integers(0, rows - 1), unique=True, max_size=rows)
        )
        wholes[name] = {
            row: rng.integers(0, 256, row_len, dtype=np.uint8)
            for row in present
        }
    events = [(c, i) for c in contributors for i in range(num_slices)]
    order = draw(st.permutations(events))
    redelivered = draw(st.lists(st.sampled_from(events), max_size=6))
    schedule = list(order)
    for event in redelivered:
        # A retry can only follow the original delivery.
        first = schedule.index(event)
        at = draw(st.integers(first + 1, len(schedule)))
        schedule.insert(at, event)
    rejects_at = draw(
        st.lists(st.integers(0, len(schedule)), max_size=3, unique=True)
    )
    return rows, num_slices, row_len, children, own, wholes, schedule, rejects_at


@given(scenarios())
@settings(max_examples=80, deadline=None)
def test_any_order_and_duplicates_fold_to_the_oracle(scenario):
    rows, num_slices, row_len, children, own, wholes, schedule, rejects_at = scenario
    agg = PartialAggregation(
        "r1", children, own=own, rows=rows, num_slices=num_slices,
        row_len=row_len,
    )
    contributors = set(wholes)
    bounds = slice_bounds(row_len, num_slices)
    merged = set()
    for step, event in enumerate(schedule + [None]):
        if step in rejects_at:
            pending = next((e for e in schedule if e not in merged), None)
            before = observe(agg)
            for segment in bad_segments(agg, pending, rows, row_len):
                with pytest.raises(StreamError):
                    agg.merge(*segment)
                assert observe(agg) == before
        if event is None:
            break
        name, index = event
        lo, hi = bounds[index], bounds[index + 1]
        if name == own:
            got = agg.merge_rows(name, wholes[name], index)
        else:
            segment = {r: buf[lo:hi] for r, buf in wholes[name].items()}
            got = agg.merge(name, index, lo, segment)
        if (name, index) in merged:
            assert got is None
            continue
        merged.add((name, index))
        done = {c for c, i in merged if i == index} == contributors
        assert got == ([index] if done else [])
        for i in range(num_slices):
            assert agg.is_ready(i) == (
                {c for c, j in merged if j == i} == contributors
            )

    expected = reduce(RepairRecipe.merge_partials, wholes.values(), {})
    assert sorted(agg.partial) == sorted(expected)
    for row, buf in expected.items():
        assert np.array_equal(agg.partial[row], buf)
    assert all(agg.is_ready(i) for i in range(num_slices))
    if expected:
        chunk = agg.assemble().reshape(rows, row_len)
        for row in range(rows):
            want = expected.get(row, np.zeros(row_len, np.uint8))
            assert np.array_equal(chunk[row], want)
    # END bookkeeping: complete only once every child has ended.
    for ended, child in enumerate(children):
        assert not agg.complete
        assert agg.missing() == children[ended:]
        assert agg.end(child)
        assert not agg.end(child)
    assert agg.complete
    assert agg.missing() == []
