"""Unit tests for the planner's cost and cardinality estimators."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.plan.cost import (
    CostModel,
    RelationStats,
    estimate_gather_cost,
    estimate_tree_cost,
    estimate_uniform_hash_cost,
    filter_stats,
    groupby_stats,
    join_stats,
    placement_profile,
    stats_of,
)
from repro.plan.relation import PlacedRelation, Schema
from repro.topology.builders import star, two_level
from repro.topology.tree import TreeTopology


def _stats(rows, distinct, profile=None):
    return RelationStats(rows=rows, distinct=distinct, profile=profile)


class TestCardinality:
    def test_stats_of_exact(self):
        schema = Schema(("k", "v"), (8, 8))
        rel = PlacedRelation(
            schema,
            {"a": np.array([[1, 1], [1, 2]]), "b": np.array([[2, 1]])},
        )
        tree = TreeTopology.from_undirected({("a", "b"): 1.0}, ["a", "b"])
        stats = stats_of(rel, tree)
        assert stats.rows == 3
        assert stats.distinct == {"k": 2, "v": 2}
        assert stats.profile.dtype == np.float64
        assert stats.profile.tolist() == [2.0, 1.0]

    def test_join_independence_estimate(self):
        left = _stats(100, {"k": 10})
        right = _stats(200, {"k": 20})
        out = join_stats(left, right, [("k", "k")], ["k"])
        assert out.rows == pytest.approx(100 * 200 / 20)
        assert out.distinct["k"] <= 10

    def test_join_empty_side(self):
        left = _stats(0, {"k": 1})
        right = _stats(50, {"k": 5})
        assert join_stats(left, right, [("k", "k")], []).rows == 0.0

    def test_filter_selectivities(self):
        stats = _stats(90, {"k": 9, "v": 30}, np.array([90.0, 0.0]))
        eq = filter_stats(stats, "k", "==")
        assert eq.rows == pytest.approx(10)
        assert eq.distinct["k"] == 1.0
        assert eq.profile.tolist() == [pytest.approx(10), 0.0]
        ne = filter_stats(stats, "k", "!=")
        assert ne.rows == pytest.approx(80)
        rng = filter_stats(stats, "k", "<=")
        assert rng.rows == pytest.approx(30)

    def test_groupby_stats(self):
        stats = _stats(1000, {"k": 40})
        assert groupby_stats(stats, "k").rows == 40


class TestShuffleEstimates:
    def test_gather_exact_on_star(self):
        tree = star(4, bandwidth=[1.0, 1.0, 1.0, 1.0])
        nodes = sorted(tree.compute_nodes, key=str)
        profile = {nodes[0]: 90.0, nodes[1]: 10.0, nodes[2]: 10.0,
                   nodes[3]: 10.0}
        cost, target = estimate_gather_cost(tree, [profile])
        assert target == nodes[0]
        # heaviest inbound link carries all of the target's arrivals
        assert cost == pytest.approx(30.0)

    def test_uniform_hash_expectation_positive(self):
        tree = two_level([2, 2], uplink_bandwidth=1.0)
        nodes = tree.left_to_right_compute_order()
        profile = {n: 25.0 for n in nodes}
        cost = estimate_uniform_hash_cost(tree, [profile])
        assert cost > 0

    def test_tree_estimate_at_least_bound(self):
        tree = star(4, bandwidth=[1.0, 2.0, 4.0, 8.0])
        nodes = tree.left_to_right_compute_order()
        r = {n: 50.0 for n in nodes}
        s = {n: 50.0 for n in nodes}
        est = estimate_tree_cost(tree, [r, s])
        # the per-link bound on the slowest leaf: its own data must move
        # or be joined against, min(totals, sides)/w >= 100/1
        assert est >= 100.0

    def test_tree_estimate_zero_when_empty(self):
        tree = star(3)
        assert estimate_tree_cost(tree, [{}, {}]) == 0.0

    def test_concentrated_data_makes_tree_cheap(self):
        tree = star(4, bandwidth=[1.0, 1.0, 1.0, 1.0])
        nodes = tree.left_to_right_compute_order()
        concentrated = [{nodes[0]: 100.0}, {nodes[0]: 100.0}]
        spread = [
            {n: 25.0 for n in nodes},
            {n: 25.0 for n in nodes},
        ]
        assert estimate_tree_cost(tree, concentrated) < estimate_tree_cost(
            tree, spread
        )


class TestCostModel:
    def test_join_stage_profiles(self):
        tree = star(4)
        model = CostModel(tree)
        nodes = tree.left_to_right_compute_order()
        left = placement_profile(tree, {nodes[0]: 100.0})
        right = placement_profile(tree, {n: 25.0 for n in nodes})
        ((_, gathered), (_, uniform)), = model.join_stages(
            left[None], right[None], [500.0], ("gather", "uniform-hash")
        )
        assert gathered.sum() == pytest.approx(500.0)
        # gather leaves everything on one node
        assert np.count_nonzero(gathered) == 1
        assert uniform.tolist() == [pytest.approx(125.0)] * 4

    def test_unknown_protocol_rejected(self):
        model = CostModel(star(3))
        with pytest.raises(PlanError):
            model.join_stages(np.ones((1, 3)), np.ones((1, 3)), [1], ("bogus",))
        with pytest.raises(PlanError):
            model.groupby_stages(np.ones(3), 1, ("bogus",))

    def test_supported_protocols_exact_first(self):
        model = CostModel(star(3))
        assert model.supported_protocols("join")[0] == "gather"
