"""``value_runs``: a stable sort of one column cut into runs of equal
values, against ``np.argsort(kind="stable")`` and a Python scan, on
both sides of the packed sort's 63-bit fit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.grouping import value_runs

INT64 = np.iinfo(np.int64)


def reference_runs(values):
    order = np.argsort(values, kind="stable")
    ordered = values[order].tolist()
    starts = [i for i in range(len(ordered)) if not i or ordered[i] != ordered[i - 1]]
    return order.tolist(), starts, np.diff(starts + [len(ordered)]).tolist()


@given(
    hnp.arrays(
        st.sampled_from([np.int16, np.int64, np.intp]),
        st.integers(0, 300),
        elements=st.integers(-20, 20),
    )
)
@settings(max_examples=100, deadline=None)
def test_value_runs_is_a_stable_argsort_cut_at_changes(values):
    order, starts, lengths = value_runs(values)
    assert (order.tolist(), starts.tolist(), lengths.tolist()) == reference_runs(values)


@pytest.mark.parametrize("span", [2**10, 2**62])
def test_wide_values_take_the_argsort(span):
    # 2**62 plus the position bits does not pack; 2**10 does
    values = np.array([span, 0, -span, span, 0, 7], dtype=np.int64)
    order, starts, lengths = value_runs(values)
    assert (order.tolist(), starts.tolist(), lengths.tolist()) == reference_runs(values)
    assert values[order[starts]].tolist() == [-span, 0, 7, span]
