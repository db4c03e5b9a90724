"""``sorted_unique`` is ``np.unique`` without a flag, and the verifiers
built on it check what they checked on ``np.unique``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.data.distribution import Distribution
from repro.engine import _verify_aggregate, _verify_intersection
from repro.errors import ProtocolError
from repro.queries.tuples import encode_tuples
from repro.util.grouping import concat_ranges, gather_ranges, sorted_unique


@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
        elements=st.integers(-5, 5) | st.integers(-(2**62), 2**62),
    )
)
@settings(max_examples=200, deadline=None)
def test_matches_np_unique(values):
    found = sorted_unique(values)
    expected = np.unique(values)
    assert found.dtype == expected.dtype and found.shape == expected.shape
    assert (found == expected).all()


def test_accepts_plain_sequences_and_leaves_its_input_alone():
    values = np.array([3, 1, 3])
    assert sorted_unique(values).tolist() == [1, 3]
    assert values.tolist() == [3, 1, 3]
    assert sorted_unique([]).tolist() == []
    assert sorted_unique([[2, -1], [2, 7]]).tolist() == [-1, 2, 7]


@given(st.lists(st.tuples(st.integers(-3, 30), st.integers(0, 6)), max_size=10))
def test_concat_ranges_is_the_concatenated_aranges(slices):
    starts = np.array([s for s, _ in slices], dtype=np.intp)
    lengths = np.array([n for _, n in slices], dtype=np.intp)
    expected = [i for s, n in slices for i in range(s, s + n)]
    assert concat_ranges(starts, lengths).tolist() == expected


@given(
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 90)), max_size=12),
    st.sampled_from([np.int64, np.int16]),
)
def test_gather_ranges_is_the_indexed_gather(slices, dtype):
    """Short slices take the index, long ones the slice-by-slice copy;
    both are ``values[concat_ranges(starts, lengths)]``, strided input
    included."""
    values = (np.arange(600, dtype=dtype) * 3 - 7)[::2]
    starts = np.array([min(s, 300 - n) for s, n in slices], dtype=np.intp)
    lengths = np.array([n for _, n in slices], dtype=np.intp)
    found = gather_ranges(values, starts, lengths)
    expected = values[concat_ranges(starts, lengths)]
    assert found.dtype == expected.dtype and found.tolist() == expected.tolist()


class TestIntersectionVerifier:
    @pytest.fixture
    def run(self):
        tree = repro.two_level([2, 3], uplink_bandwidth=0.5)
        # R ∩ S = {2, 5}; inputs hold a duplicate and are unsorted
        distribution = Distribution(
            {
                "v1": {"R": [5, 2, 9], "S": [7]},
                "v2": {"R": [4], "S": [5, 2]},
                "v4": {"S": [2, 11]},
            }
        )
        result = repro.tree_intersect(tree, distribution, seed=1)
        _verify_intersection(tree, distribution, result)
        return tree, distribution, result

    @pytest.mark.parametrize(
        "outputs, found",
        [
            ({"v1": [2, 6]}, 2),  # a wrong element
            ({"v1": [2]}, 1),  # a missing element
            ({"v1": [2, 5], "v3": [9]}, 3),  # an extra element
            ({}, 0),
        ],
    )
    def test_wrong_missing_or_extra_element_rejected(self, run, outputs, found):
        tree, distribution, result = run
        bad = dataclasses.replace(
            result,
            outputs={v: np.asarray(o, np.int64) for v, o in outputs.items()},
        )
        with pytest.raises(ProtocolError) as raised:
            _verify_intersection(tree, distribution, bad)
        assert str(raised.value) == (
            f"tree-intersect produced a wrong intersection ({found} vs 2 elements)"
        )

    def test_an_element_emitted_at_two_nodes_counts_once(self, run):
        tree, distribution, result = run
        emitted = {"v1": np.array([5, 2, 5]), "v3": np.array([2])}
        _verify_intersection(
            tree, distribution, dataclasses.replace(result, outputs=emitted)
        )


def test_aggregate_verifier_counts_distinct_keys():
    tree = repro.two_level([2, 3], uplink_bandwidth=0.5)
    distribution = Distribution(
        {
            "v1": {"R": encode_tuples([4, 4, 9], [1, 2, 3])},
            "v3": {"R": encode_tuples([9, 1], [4, 5])},
        }
    )
    result = repro.get_protocol("groupby-aggregate", "tree").call(
        tree, distribution
    )
    _verify_aggregate(tree, distribution, result)
    short = dataclasses.replace(
        result, outputs={v: {} for v in result.outputs}
    )
    with pytest.raises(ProtocolError, match="emitted 0 of 3 groups"):
        _verify_aggregate(tree, distribution, short)
