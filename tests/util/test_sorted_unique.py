"""``sorted_unique`` is ``np.unique`` without a flag, the verifiers'
one-sort ``_shared_keys`` is ``np.unique`` / ``np.intersect1d``, and the
verifiers built on them check what they checked on ``np.unique``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro import engine
from repro.data.distribution import Distribution
from repro.engine import _shared_keys
from repro.errors import ProtocolError
from repro.queries.join import JoinOutputs
from repro.queries.tuples import encode_tuples
from repro.registry import get_task
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


def _unique_shared_keys(a, b):
    """``_shared_keys`` by ``np.unique`` and ``np.intersect1d``."""
    a_keys, a_counts = np.unique(np.asarray(a, np.int64), return_counts=True)
    b_keys, b_counts = np.unique(np.asarray(b, np.int64), return_counts=True)
    keys, a_index, b_index = np.intersect1d(
        a_keys, b_keys, assume_unique=True, return_indices=True
    )
    return keys, a_counts[a_index], b_counts[b_index]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def side_pairs(draw):
    """Two int64 sides over a span of ``bits`` bits: ``lo`` and
    ``lo + 2**bits - 1`` both present (unless a side is empty), the rest
    near either end or anywhere between, duplicates likely."""
    bits = draw(st.sampled_from([0, 3, 61, 62, 63, 64]))
    span = 2**bits - 1
    lo = draw(st.integers(INT64_MIN, INT64_MAX - span) | st.just(INT64_MAX - span))
    offsets = (
        st.integers(0, 4) | st.integers(span - 4, span) | st.integers(0, span)
    ).filter(lambda offset: 0 <= offset <= span)
    sides = [draw(st.lists(offsets, max_size=12)) for _ in range(2)]
    if sides[0] and sides[1]:
        sides[draw(st.integers(0, 1))].append(0)
        sides[draw(st.integers(0, 1))].append(span)
    return [np.array([lo + offset for offset in side], np.int64) for side in sides]


@given(side_pairs())
@settings(max_examples=300, deadline=None)
def test_shared_keys_matches_unique_and_intersect1d(sides):
    found = _shared_keys(*sides)
    expected = _unique_shared_keys(*sides)
    assert found[0].dtype == np.int64
    for got, want in zip(found, expected):
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("bits, fallback", [(61, False), (62, False), (63, True)])
def test_shared_keys_falls_back_only_past_62_bits(monkeypatch, bits, fallback):
    """A span of 62 bits still leaves room for the side bit; 63 does not,
    and then ``np.unique`` counts the keys."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(
        np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k)
    )
    lo = -(2**62)
    a = np.array([lo, lo + 5, lo + 5, lo + 2**bits - 1], np.int64)
    b = np.array([lo + 2**bits - 1, lo + 5, lo + 7], np.int64)
    keys, a_counts, b_counts = _shared_keys(a, b)
    assert keys.tolist() == [lo + 5, lo + 2**bits - 1]
    assert a_counts.tolist() == [2, 1] and b_counts.tolist() == [1, 1]
    assert bool(calls) == fallback


def test_shared_keys_calls_no_kernel_it_checks():
    """The helper reads no name of the engine's module but NumPy: a
    verifier built on the protocol kernels would pass their bugs."""
    names = set(_shared_keys.__code__.co_names) & set(vars(engine))
    assert names == {"np"}


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
        get_task("set-intersection").verify(tree, distribution, result)
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
            get_task("set-intersection").verify(tree, distribution, bad)
        assert str(raised.value) == (
            f"tree-intersect produced a wrong intersection ({found} vs 2 elements)"
        )

    def test_an_element_emitted_at_two_nodes_counts_once(self, run):
        tree, distribution, result = run
        emitted = {"v1": np.array([5, 2, 5]), "v3": np.array([2])}
        get_task("set-intersection").verify(
            tree, distribution, dataclasses.replace(result, outputs=emitted)
        )

    def test_a_span_wider_than_62_bits_is_checked_too(self):
        """Elements at ``±2**62`` leave no room for the side bit, so the
        ``np.unique`` fallback decides: the answer passes, a missing
        element fails with the usual message."""
        tree = repro.star(3)
        wide = [-(2**62), -1, 3, 2**62]
        distribution = Distribution(
            {"v1": {"R": wide[:3], "S": wide[1:]}, "v2": {"R": [2**62, 8]}}
        )
        result = repro.tree_intersect(tree, distribution, seed=1)
        get_task("set-intersection").verify(tree, distribution, result)
        missing = dataclasses.replace(
            result, outputs={"v1": np.array([-1, 3], np.int64)}
        )
        with pytest.raises(ProtocolError) as raised:
            get_task("set-intersection").verify(tree, distribution, missing)
        assert str(raised.value) == (
            "tree-intersect produced a wrong intersection (2 vs 3 elements)"
        )


class TestEquijoinVerifier:
    @pytest.fixture
    def run(self):
        tree = repro.two_level([2, 3], uplink_bandwidth=0.5)
        # key 4: 2 R rows x 1 S row; 9 is held by R only, 7 by S only
        distribution = Distribution(
            {
                "v1": {
                    "R": encode_tuples([4, 9], [1, 2]),
                    "S": encode_tuples([7], [3]),
                },
                "v3": {
                    "R": encode_tuples([9, 4, 9], [4, 5, 6]),
                    "S": encode_tuples([4, 7], [7, 8]),
                },
            }
        )
        result = repro.get_protocol("equijoin", "tree").call(tree, distribution)
        get_task("equijoin").verify(tree, distribution, result)
        return tree, distribution, result

    @pytest.mark.parametrize(
        "produced",
        [3, 1, 5],
        ids=["one-pair-too-many", "one-pair-too-few", "one-sided-key-joined"],
    )
    def test_a_wrong_pair_count_is_rejected(self, run, produced):
        """5 = the 2 true pairs plus key 9's three R rows, as if S held 9."""
        tree, distribution, result = run
        joined = JoinOutputs.of(result.outputs)
        assert joined.pair_bounds[-1] == 2
        bad = dataclasses.replace(
            result,
            outputs=JoinOutputs(
                joined.nodes,
                [*joined.pair_bounds[:-1], produced],
                joined.run_bounds,
                None,
            ),
        )
        with pytest.raises(ProtocolError) as raised:
            get_task("equijoin").verify(tree, distribution, bad)
        assert str(raised.value) == f"tree-equijoin joined {produced} of 2 pairs"


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
    get_task("groupby-aggregate").verify(tree, distribution, result)
    short = dataclasses.replace(
        result, outputs={v: {} for v in result.outputs}
    )
    with pytest.raises(ProtocolError, match="emitted 0 of 3 groups"):
        get_task("groupby-aggregate").verify(tree, distribution, short)
