"""``regroup_stretches`` against the per-owner definition."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.util.grouping import regroup_stretches


@st.composite
def tables(draw):
    drawn = []
    for _ in range(draw(st.integers(1, 4))):
        values = np.array(
            draw(st.lists(st.integers(-9, 99), max_size=12)), dtype=np.int64
        )
        count = draw(st.integers(1, 5))
        owners = draw(st.lists(st.integers(0, 6), min_size=count, max_size=count))
        starts = [draw(st.integers(0, len(values))) for _ in owners]
        ends = [draw(st.integers(start, len(values))) for start in starts]
        drawn.append(
            (values, np.array(owners, np.int16), np.array(starts, np.intp), np.array(ends, np.intp))
        )
    return drawn


@given(tables())
@settings(max_examples=200, deadline=None)
def test_matches_one_list_per_owner(drawn):
    expected: dict = {}
    stretches: dict = {}
    for values, owners, starts, ends in drawn:
        for owner, start, end in zip(owners.tolist(), starts.tolist(), ends.tolist()):
            expected.setdefault(owner, []).extend(values[start:end].tolist())
            stretches[owner] = stretches.get(owner, 0) + 1
    values, owners, starts, ends, counts = regroup_stretches(drawn)
    assert owners.tolist() == sorted(expected)
    assert counts.tolist() == [stretches[owner] for owner in sorted(expected)]
    assert starts.tolist() == [0, *ends.tolist()[:-1]][: len(starts)]
    for owner, start, end in zip(owners.tolist(), starts.tolist(), ends.tolist()):
        assert values[start:end].tolist() == expected[owner]
    assert len(values) == sum(map(len, expected.values()))


def test_a_column_comes_back_uncopied():
    values = np.arange(6, dtype=np.int64)
    table = (values, np.array([1, 4]), np.array([0, 2]), np.array([2, 6]))
    merged, owners, starts, ends, counts = regroup_stretches([table])
    assert merged is values and owners is table[1]
    assert counts.tolist() == [1, 1]
