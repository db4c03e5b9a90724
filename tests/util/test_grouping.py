"""``group_slices`` and the multicast id stream it groups.

Every round's grouping runs the kernel on the arrays it is given (no
memo), so these pin results: the grouping against the per-group mask
it replaced, and a round's multicast id stream — each record's ids
shifted by a running base and materialized by ``_concat_parts`` —
grouped as the based concatenation would be.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.grouping import _concat_parts, group_slices


def _assert_groupings_equal(found, expected) -> None:
    for part, want in zip(found, expected, strict=True):
        assert np.array_equal(part, want)


@given(
    hnp.arrays(
        st.sampled_from([np.int16, np.int64, np.uint8, np.intp]),
        st.integers(0, 3000),
        elements=st.integers(0, 40),
    )
)
@settings(max_examples=100, deadline=None)
def test_each_group_is_its_mask_in_element_order(indices):
    order, uniques, starts, ends = group_slices(indices)
    assert uniques.tolist() == np.unique(indices).tolist()
    for value, lo, hi in zip(uniques.tolist(), starts.tolist(), ends.tolist()):
        assert order[lo:hi].tolist() == np.flatnonzero(indices == value).tolist()
    assert ends.tolist()[-1:] == ([len(indices)] if len(indices) else [])


@pytest.mark.parametrize("dtype", [np.int64, np.intp, np.int16])
def test_wide_and_narrow_ids_group_alike(dtype):
    indices = np.random.default_rng(3).integers(0, 13, size=5000)
    _assert_groupings_equal(
        group_slices(indices.astype(dtype)), group_slices(indices)
    )


def test_ids_past_the_int16_range_group_exactly():
    indices = np.array([2**40, 3, 2**40, -1, 3])
    order, uniques, starts, ends = group_slices(indices)
    assert uniques.tolist() == [-1, 3, 2**40]
    assert order.tolist() == [3, 1, 4, 0, 2]
    assert (starts.tolist(), ends.tolist()) == ([0, 1, 3], [1, 3, 5])


def test_an_empty_array_has_no_groups():
    order, uniques, starts, ends = group_slices(np.empty(0, np.int64))
    assert [len(part) for part in (order, uniques, starts, ends)] == [0] * 4


class TestConcatParts:
    def _parts(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 5, size=3000)
        b = rng.integers(0, 7, size=2000)
        return [(a, 0), (np.zeros(1500, np.intp), 5), (b, 6)]

    @staticmethod
    def _based(parts):
        return np.concatenate([ids + base for ids, base in parts])

    def test_grouping_the_stream_is_grouping_the_based_concatenation(self):
        parts = self._parts()
        assert np.array_equal(_concat_parts(parts), self._based(parts))
        _assert_groupings_equal(
            group_slices(_concat_parts(parts)), group_slices(self._based(parts))
        )

    def test_small_parts_match_the_based_concatenation(self):
        parts = [
            (np.asarray([2, 0, 1]), 0),
            (np.zeros(2, np.intp), 3),
            (np.asarray([1, 0]), 4),
        ]
        _assert_groupings_equal(
            group_slices(_concat_parts(parts)), group_slices(self._based(parts))
        )

    def test_base_shift_distinguishes_equal_ids(self):
        ids = np.zeros(2000, dtype=np.int64)
        one = np.zeros(1, np.intp)
        assert group_slices(_concat_parts([(ids, 0), (one, 1)]))[1].tolist() == [0, 1]
        assert group_slices(_concat_parts([(ids, 3), (one, 0)]))[1].tolist() == [0, 3]

    def test_narrow_ids_are_widened_before_the_shift(self):
        ids = np.full(4, 2**15 - 1, np.int16)
        assert _concat_parts([(ids, 5)]).tolist() == [2**15 + 4] * 4
        assert _concat_parts([(ids[:1], 0), (ids[:1], 40_000)]).tolist() == [
            2**15 - 1,
            2**15 + 39_999,
        ]
