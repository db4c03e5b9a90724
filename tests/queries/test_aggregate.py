"""Tests for distribution-aware group-by aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.distribution import Distribution
from repro.engine import run
from repro.errors import ProtocolError
from repro.queries.aggregate import tree_groupby_aggregate
from repro.queries.tuples import encode_tuples
from repro.registry import list_protocols
from repro.topology.builders import star
from repro.util.seeding import derive_seed


def place_tuples(tree, rows, seed=0):
    nodes = tree.left_to_right_compute_order()
    per_node: dict = {node: [] for node in nodes}
    for index, row in enumerate(rows):
        per_node[nodes[(index + seed) % len(nodes)]].append(row)
    return Distribution(
        {
            node: {
                "R": encode_tuples(
                    [k for k, _ in rows_], [v for _, v in rows_]
                )
            }
            for node, rows_ in per_node.items()
        }
    )


def merged_outputs(result) -> dict:
    merged: dict = {}
    for node_output in result.outputs.values():
        for key, value in node_output.items():
            assert key not in merged, "key owned by two nodes"
            merged[key] = value
    return merged


def reference(rows, op) -> dict:
    expected: dict = {}
    for key, value in rows:
        if op == "sum":
            expected[key] = expected.get(key, 0) + value
        elif op == "count":
            expected[key] = expected.get(key, 0) + 1
        elif op == "min":
            expected[key] = min(expected.get(key, value), value)
        elif op == "max":
            expected[key] = max(expected.get(key, value), value)
    return expected


class TestGroupByAggregate:
    @pytest.mark.parametrize("op", ["sum", "count", "min", "max"])
    def test_matches_reference(self, any_topology, op):
        rows = [(k % 7, (k * 13) % 50 + 1) for k in range(60)]
        dist = place_tuples(any_topology, rows)
        result = tree_groupby_aggregate(any_topology, dist, op=op, seed=1)
        assert merged_outputs(result) == reference(rows, op)

    def test_single_round(self, simple_star):
        dist = place_tuples(simple_star, [(1, 2), (1, 3)])
        assert tree_groupby_aggregate(simple_star, dist).rounds == 1

    def test_empty_input(self, simple_star):
        result = tree_groupby_aggregate(simple_star, Distribution({}))
        assert merged_outputs(result) == {}

    def test_pre_aggregation_reduces_cost(self, simple_star):
        # few keys, many tuples: partials are tiny, raw tuples are not.
        rows = [(k % 3, 1) for k in range(3000)]
        dist = place_tuples(simple_star, rows)
        combined = tree_groupby_aggregate(simple_star, dist, op="sum", seed=2)
        raw = tree_groupby_aggregate(
            simple_star, dist, op="sum", seed=2, pre_aggregate=False
        )
        assert merged_outputs(combined) == merged_outputs(raw)
        assert combined.cost < raw.cost / 10

    def test_count_without_preaggregation(self, simple_star):
        rows = [(k % 4, 9) for k in range(40)]
        dist = place_tuples(simple_star, rows)
        result = tree_groupby_aggregate(
            simple_star, dist, op="count", pre_aggregate=False
        )
        assert merged_outputs(result) == reference(rows, "count")

    @pytest.mark.parametrize(
        "protocol",
        [spec.name for spec in list_protocols("groupby-aggregate")],
    )
    @pytest.mark.parametrize("rows", [[(1, 1), (2, 5)], []], ids=["tuples", "empty"])
    def test_every_protocol_rejects_unknown_op(self, simple_star, protocol, rows):
        dist = place_tuples(simple_star, rows)
        with pytest.raises(ProtocolError, match="unsupported op 'median'"):
            run("groupby-aggregate", simple_star, dist, protocol=protocol, op="median")

    def test_owners_follow_placement_weights(self):
        # nearly all data on v1: v1 should own most groups.
        tree = star(4)
        rows = [(k, 1) for k in range(200)]
        nodes = tree.left_to_right_compute_order()
        placements = {
            nodes[0]: {"R": encode_tuples([k for k, _ in rows[:190]],
                                          [v for _, v in rows[:190]])},
            nodes[1]: {"R": encode_tuples([k for k, _ in rows[190:]],
                                          [v for _, v in rows[190:]])},
        }
        dist = Distribution(placements)
        result = tree_groupby_aggregate(tree, dist, op="sum", seed=3)
        owned = {v: len(result.outputs.get(v, {})) for v in nodes}
        assert owned[nodes[0]] > 150

    @given(
        num_rows=st.integers(0, 80),
        key_space=st.integers(1, 10),
        op=st.sampled_from(["sum", "count", "min", "max"]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_reference(self, num_rows, key_space, op, seed):
        tree = star(5, bandwidth=[1, 2, 4, 2, 1])
        rng = np.random.default_rng(derive_seed(seed, "agg-prop"))
        rows = [
            (int(k), int(v) + 1)
            for k, v in zip(
                rng.integers(0, key_space, num_rows),
                rng.integers(0, 1000, num_rows),
            )
        ]
        dist = place_tuples(tree, rows, seed=seed)
        result = tree_groupby_aggregate(tree, dist, op=op, seed=seed)
        assert merged_outputs(result) == reference(rows, op)
