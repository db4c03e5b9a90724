"""The segmented local kernels equal the task definitions node by node.

``intersect_columns``, ``join_columns`` and ``combine_per_node_key``
evaluate every node's local computation in one pass over whole columns;
the tests split the columns back into per-node fragments and compute
each node's answer with the model's sets and dicts
(``tests/model/tasks.py``).  Outputs must agree value for value; the
order of a join's rows and a combiner's keys is checked on its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.intersection.tree import intersect_columns
from repro.queries.aggregate import combine_per_key, combine_per_node_key
from repro.queries.join import join_columns, local_join
from repro.queries.tuples import encode_tuples
from repro.util.grouping import owner_bounds

from tests.model import tasks

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: Set elements that break any scheme packing ``(node, value)`` by shifts.
EXTREME_ELEMENTS = st.sampled_from(
    [INT64_MIN, INT64_MIN + 1, -(2**40), -1, 0, 1, 2**40, INT64_MAX - 1, INT64_MAX]
)


@st.composite
def columns(draw, num_nodes: int, elements, *, max_per_node: int = 6):
    """An ``(owners, values)`` column: ascending owners, some nodes empty."""
    sizes = [draw(st.integers(0, max_per_node)) for _ in range(num_nodes)]
    owners = np.repeat(np.arange(num_nodes, dtype=np.int16), sizes)
    values = draw(
        st.lists(elements, min_size=int(sum(sizes)), max_size=int(sum(sizes)))
    )
    return owners, np.asarray(values, dtype=np.int64)


@st.composite
def set_columns(draw):
    num_nodes = draw(st.integers(1, 5))
    elements = EXTREME_ELEMENTS | st.integers(-6, 6)
    return (
        num_nodes,
        draw(columns(num_nodes, elements)),
        draw(columns(num_nodes, elements)),
    )


@st.composite
def tuple_columns(draw):
    """Two encoded columns whose keys repeat within and across both sides."""
    num_nodes = draw(st.integers(1, 5))
    payload_bits = draw(st.sampled_from([1, 20, 40]))
    keys = st.integers(0, 4) | st.just(2 ** (62 - payload_bits) - 1)
    payloads = st.integers(0, min(2**payload_bits - 1, 9)) | st.just(
        2**payload_bits - 1
    )
    sides = []
    for _ in range(2):
        owners, key_column = draw(columns(num_nodes, keys))
        payload_column = draw(
            st.lists(payloads, min_size=len(owners), max_size=len(owners))
        )
        sides.append(
            (
                owners,
                encode_tuples(
                    key_column,
                    np.asarray(payload_column, dtype=np.int64),
                    payload_bits=payload_bits,
                ),
            )
        )
    return num_nodes, payload_bits, sides[0], sides[1]


def fragments(owners, values, num_nodes: int) -> list:
    """A column split back into per-node fragments, order preserved."""
    return [values[owners == node] for node in range(num_nodes)]


def assert_join_is_the_model(got, r_tuples, s_tuples, payload_bits, materialize):
    expected = tasks.join(
        tasks.rows(r_tuples, payload_bits), tasks.rows(s_tuples, payload_bits)
    )
    assert got.keys() == {"num_pairs", "num_keys", *(["pairs"] if materialize else [])}
    assert type(got["num_pairs"]) is int and type(got["num_keys"]) is int
    assert got["num_pairs"] == sum(expected.values())
    assert got["num_keys"] == len({key for key, _, _ in expected})
    if materialize:
        pairs = got["pairs"]
        assert pairs.dtype == np.int64 and pairs.shape == (got["num_pairs"], 3)
        assert sorted(map(tuple, pairs.tolist())) == sorted(expected.elements())
        assert (np.diff(pairs[:, 0]) >= 0).all()  # key ascending


class TestIntersectColumns:
    @given(set_columns())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_node_set_intersection(self, instance):
        num_nodes, (r_owners, r_values), (s_owners, s_values) = instance
        actual = intersect_columns(
            (r_owners, r_values), (s_owners, s_values), range(num_nodes)
        )
        assert list(actual) == list(range(num_nodes))
        for node, r, s in zip(
            range(num_nodes),
            fragments(r_owners, r_values, num_nodes),
            fragments(s_owners, s_values, num_nodes),
        ):
            assert actual[node].dtype == np.int64
            assert actual[node].tolist() == sorted(set(r.tolist()) & set(s.tolist()))

    def test_nodes_holding_nothing_or_one_side_only(self):
        empty = np.empty(0, np.int64)
        owners = np.asarray([1, 1, 2], dtype=np.int16)
        values = np.asarray([5, 5, 9], dtype=np.int64)
        # node 0 holds nothing, node 1 only R, node 2 both
        outputs = intersect_columns(
            (owners, values),
            (np.asarray([2], np.int16), np.asarray([9])),
            "abc",
        )
        assert {v: out.tolist() for v, out in outputs.items()} == {
            "a": [],
            "b": [],
            "c": [9],
        }
        nothing = (empty.astype(np.int16), empty)
        outputs = intersect_columns(nothing, nothing, range(4))
        assert len(outputs) == 4
        assert all(len(out) == 0 for out in outputs.values())

    def test_same_value_on_two_nodes_is_not_common(self):
        """``(node, value)`` identity: a value on node 0's R side and on
        node 1's S side meets nowhere, even at the int64 extremes."""
        for value in (INT64_MIN, INT64_MAX, -1):
            outputs = intersect_columns(
                (np.asarray([0], np.int16), np.asarray([value])),
                (np.asarray([1], np.int16), np.asarray([value])),
                range(2),
            )
            assert [out.tolist() for out in outputs.values()] == [[], []]

    @staticmethod
    def _side_bit_columns(bits):
        """Owners 0..3 (2 bits) and a value span of ``bits - 3`` bits:
        the side bit lands inside (63) or outside (64) the packed sort."""
        rng = np.random.default_rng(bits)
        width = bits - 3
        values = INT64_MIN + rng.integers(0, 2**width, 400)
        values[:2] = INT64_MIN, INT64_MIN + 2**width - 1
        values[200:300] = values[:100]  # common when the owners agree
        owners = rng.integers(0, 4, 400).astype(np.int16)
        return owners, values

    @pytest.mark.parametrize("bits, packs", [(63, True), (64, False)])
    def test_both_sides_of_the_side_bit_fit(self, monkeypatch, bits, packs):
        """Both paths find every node's common values."""
        import repro.core.intersection.tree as tree_module

        owners, values = self._side_bit_columns(bits)
        fits, real = [], tree_module.packed_words

        def spy(fields, low_bits):
            packed = real(fields, low_bits)
            fits.append(packed is not None)
            return packed

        monkeypatch.setattr(tree_module, "packed_words", spy)
        r_column, s_column = (owners[:200], values[:200]), (owners[200:], values[200:])
        outputs = intersect_columns(r_column, s_column, range(4))
        assert fits == [packs]
        for node, r, s in zip(
            range(4), fragments(*r_column, 4), fragments(*s_column, 4)
        ):
            assert outputs[node].tolist() == sorted(set(r.tolist()) & set(s.tolist()))
        assert sum(map(len, outputs.values())) > 10

    @pytest.mark.parametrize("bits", [63, 64])
    def test_a_wide_column_packs_once(self, monkeypatch, bits):
        """When the side bit does not fit, position bits cannot either:
        the fallback sorts at full width without packing again."""
        import repro.core.intersection.tree as tree_module
        from repro.util import grouping

        calls, real = [], grouping.packed_words

        def spy(fields, low_bits):
            calls.append(low_bits)
            return real(fields, low_bits)

        monkeypatch.setattr(tree_module, "packed_words", spy)
        monkeypatch.setattr(grouping, "packed_words", spy)
        owners, values = self._side_bit_columns(bits)
        intersect_columns(
            (owners[:200], values[:200]), (owners[200:], values[200:]), range(4)
        )
        assert calls == [1]


class TestJoinColumns:
    @given(tuple_columns(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_node_join(self, instance, materialize):
        num_nodes, payload_bits, (r_owners, r_tuples), (s_owners, s_tuples) = (
            instance
        )
        actual = join_columns(
            (r_owners, r_tuples),
            (s_owners, s_tuples),
            range(num_nodes),
            payload_bits=payload_bits,
            materialize=materialize,
        )
        assert list(actual) == list(range(num_nodes))
        for node, r, s in zip(
            range(num_nodes),
            fragments(r_owners, r_tuples, num_nodes),
            fragments(s_owners, s_tuples, num_nodes),
        ):
            assert_join_is_the_model(actual[node], r, s, payload_bits, materialize)

    @given(tuple_columns(), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_local_join_is_the_one_node_case(self, instance, materialize):
        _, payload_bits, (_, r_tuples), (_, s_tuples) = instance
        got = local_join(
            r_tuples, s_tuples, payload_bits=payload_bits, materialize=materialize
        )
        assert_join_is_the_model(got, r_tuples, s_tuples, payload_bits, materialize)

    def test_row_order_is_key_ascending_then_r_major(self):
        r = encode_tuples([7, 3, 7], [1, 2, 3])
        s = encode_tuples([7, 7, 3], [4, 5, 6])
        zeros = np.zeros(3, np.int16)
        result = join_columns(
            (zeros, r), (zeros, s), ["v"], payload_bits=20, materialize=True
        )["v"]
        assert result["pairs"].tolist() == [
            [3, 2, 6],
            [7, 1, 4],
            [7, 1, 5],
            [7, 3, 4],
            [7, 3, 5],
        ]

    def test_a_node_joining_nothing_gets_an_empty_table(self):
        r = encode_tuples([1], [0])
        results = join_columns(
            (np.asarray([0], np.int16), r),
            (np.asarray([1], np.int16), r),
            range(2),
            payload_bits=20,
            materialize=True,
        )
        for result in results.values():
            assert result["num_pairs"] == result["num_keys"] == 0
            assert result["pairs"].shape == (0, 3)
            assert result["pairs"].dtype == np.int64


class TestCombinePerNodeKey:
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                columns(n, st.integers(0, 5)),
                st.integers(0, 2**16),
            )
        ),
        st.sampled_from(["sum", "count", "min", "max"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_node_combine_per_key(self, instance, op):
        num_nodes, (owners, keys), seed = instance
        values = np.random.default_rng(seed).integers(-50, 50, len(keys))
        out_owners, out_keys, out_values = combine_per_node_key(
            owners, keys, values, op
        )
        assert np.all(np.diff(out_owners) >= 0)
        bounds = owner_bounds(out_owners, num_nodes)
        assert out_values.dtype == np.int64
        for node_keys, node_values, lo, hi in zip(
            fragments(owners, keys, num_nodes),
            fragments(owners, values, num_nodes),
            bounds,
            bounds[1:],
        ):
            expected = tasks.aggregate(zip(node_keys, node_values), op)
            assert out_keys[lo:hi].tolist() == sorted(expected)
            assert out_values[lo:hi].tolist() == [expected[k] for k in sorted(expected)]

    @pytest.mark.parametrize("op", ["sum", "count", "min", "max"])
    def test_combine_per_key_is_the_one_node_case(self, op):
        keys = np.asarray([4, 1, 4, 9, 1, 4], dtype=np.int64)
        values = np.asarray([3, -2, 8, 0, 5, 1], dtype=np.int64)
        got_keys, got_values = combine_per_key(keys, values, op)
        expected = tasks.aggregate(zip(keys, values), op)
        assert got_keys.tolist() == sorted(expected)
        assert got_values.tolist() == [expected[k] for k in sorted(expected)]

    @pytest.mark.parametrize("op", ["sum", "count", "min", "max"])
    def test_empty_input(self, op):
        empty = np.empty(0, np.int64)
        keys, values = combine_per_key(empty, empty, op)
        assert len(keys) == len(values) == 0
