"""Protocol-level tests: wHC, Algorithm 4, and the Theorem 5 tree protocol."""

import numpy as np
import pytest

from repro.core.cartesian.lower_bounds import cartesian_lower_bound
from repro.core.cartesian.star import star_cartesian_product
from repro.core.cartesian.tree import tree_cartesian_product
from repro.core.cartesian.whc import whc_cartesian_product, whc_dimensions
from repro.data.distribution import Distribution
from repro.data.generators import random_distribution
from repro.errors import ProtocolError
from repro.topology.builders import star, two_level
from repro.util.intmath import is_power_of_two


def total_pairs(result) -> int:
    return sum(o["num_pairs"] for o in result.outputs.values())


def materialized_pairs(result) -> set:
    pairs: set = set()
    for output in result.outputs.values():
        if "pairs" in output:
            pairs |= {tuple(p) for p in output["pairs"].tolist()}
    return pairs


class TestWhcDimensions:
    def test_power_of_two(self):
        dims = whc_dimensions({"a": 1.0, "b": 2.0, "c": 4.0}, 100)
        assert all(is_power_of_two(d) for d in dims.values())

    def test_proportional_to_bandwidth(self):
        dims = whc_dimensions({"a": 1.0, "b": 8.0}, 128)
        assert dims["b"] > dims["a"]

    def test_area_covers_n_squared(self):
        dims = whc_dimensions({"a": 1.0, "b": 2.0, "c": 2.0}, 60)
        assert sum(d * d for d in dims.values()) >= 60 * 60

    def test_rejects_infinite_bandwidth(self):
        with pytest.raises(ProtocolError):
            whc_dimensions({"a": float("inf")}, 10)

    def test_rejects_empty_input(self):
        with pytest.raises(ProtocolError):
            whc_dimensions({"a": 1.0}, 0)


class TestWhcProtocol:
    def test_enumerates_all_pairs_exactly_once(self, simple_star):
        dist = random_distribution(simple_star, r_size=40, s_size=40, seed=1)
        result = whc_cartesian_product(simple_star, dist)
        assert total_pairs(result) == 40 * 40

    def test_materialized_pairs_match_truth(self, simple_star):
        dist = random_distribution(simple_star, r_size=12, s_size=12, seed=2)
        result = whc_cartesian_product(simple_star, dist, materialize=True)
        truth = {
            (int(r), int(s))
            for r in dist.relation("R")
            for s in dist.relation("S")
        }
        assert materialized_pairs(result) == truth

    def test_single_round(self, simple_star):
        dist = random_distribution(simple_star, r_size=20, s_size=20, seed=0)
        assert whc_cartesian_product(simple_star, dist).rounds == 1

    def test_received_volume_tracks_bandwidth(self):
        tree = star(4, bandwidth=[1.0, 1.0, 8.0, 8.0])
        dist = random_distribution(
            tree, r_size=256, s_size=256, policy="uniform", seed=3
        )
        result = whc_cartesian_product(tree, dist)
        dims = result.meta["dims"]
        assert dims["v3"] > dims["v1"]

    def test_rejects_unequal_sizes(self, simple_star):
        dist = random_distribution(simple_star, r_size=10, s_size=20, seed=0)
        with pytest.raises(ProtocolError, match="unequal"):
            whc_cartesian_product(simple_star, dist)

    def test_rejects_non_star(self, simple_two_level):
        dist = random_distribution(
            simple_two_level, r_size=10, s_size=10, seed=0
        )
        with pytest.raises(ProtocolError, match="star"):
            whc_cartesian_product(simple_two_level, dist)

    def test_dims_override(self, simple_star):
        dist = random_distribution(simple_star, r_size=16, s_size=16, seed=1)
        dims = {v: 16 for v in simple_star.compute_nodes}
        result = whc_cartesian_product(simple_star, dist, dims=dims)
        assert total_pairs(result) == 256


class TestStarCartesianProduct:
    def test_gathers_when_one_node_dominates(self):
        tree = star(3)
        dist = Distribution(
            {
                "v1": {"R": list(range(40)), "S": list(range(100, 140))},
                "v2": {"R": list(range(40, 50)), "S": []},
                "v3": {"S": list(range(200, 210))},
            }
        )
        result = star_cartesian_product(tree, dist)
        assert result.meta["strategy"] == "gather"
        assert result.meta["target"] == "v1"
        assert total_pairs(result) == 50 * 50

    def test_whc_when_balanced(self, simple_star):
        dist = random_distribution(
            simple_star, r_size=40, s_size=40, policy="uniform", seed=2
        )
        result = star_cartesian_product(simple_star, dist)
        assert result.meta["strategy"] == "weighted-hypercube"

    def test_empty_instance(self, simple_star):
        result = star_cartesian_product(
            simple_star, Distribution({"v1": {"R": [], "S": []}})
        )
        assert total_pairs(result) == 0
        assert result.meta["strategy"] == "empty"

    def test_empty_outputs_follow_the_compute_order(self):
        tree = star(9)
        result = star_cartesian_product(tree, Distribution({}))
        assert tuple(result.outputs) == tree.compute_nodes

    def test_gather_cost_matches_lower_bound(self):
        tree = star(3, bandwidth=[1.0, 2.0, 4.0])
        dist = Distribution(
            {
                "v1": {"R": list(range(60)), "S": list(range(100, 160))},
                "v2": {"R": list(range(60, 70))},
                "v3": {"S": list(range(200, 210))},
            }
        )
        result = star_cartesian_product(tree, dist)
        bound = cartesian_lower_bound(tree, dist)
        assert result.cost <= 4 * bound.value


class TestTreeCartesianProduct:
    @pytest.mark.parametrize("policy", ["uniform", "zipf"])
    def test_all_pairs_on_any_topology(self, any_topology, policy):
        dist = random_distribution(
            any_topology, r_size=60, s_size=60, policy=policy, seed=4
        )
        result = tree_cartesian_product(any_topology, dist)
        assert total_pairs(result) == 3600
        assert result.rounds == 1

    def test_materialized_correctness_on_tree(self, simple_two_level):
        dist = random_distribution(
            simple_two_level, r_size=10, s_size=10, seed=5
        )
        result = tree_cartesian_product(
            simple_two_level, dist, materialize=True
        )
        truth = {
            (int(r), int(s))
            for r in dist.relation("R")
            for s in dist.relation("S")
        }
        assert materialized_pairs(result) == truth

    def test_gather_when_root_is_compute(self, simple_two_level):
        dist = random_distribution(
            simple_two_level, r_size=50, s_size=50,
            policy="single-heavy", heavy_fraction=0.9, seed=6,
        )
        result = tree_cartesian_product(simple_two_level, dist)
        assert result.meta["strategy"] == "gather-to-root"
        assert total_pairs(result) == 2500

    def test_cost_within_constant_of_lower_bound(self):
        for policy in ("uniform", "zipf", "proportional"):
            tree = two_level(
                [3, 3], leaf_bandwidth=[1.0, 4.0], uplink_bandwidth=2.0
            )
            dist = random_distribution(
                tree, r_size=400, s_size=400, policy=policy, seed=7
            )
            result = tree_cartesian_product(tree, dist)
            bound = cartesian_lower_bound(tree, dist)
            assert result.cost <= 4 * bound.value, policy

    def test_rejects_unequal_sizes(self, simple_two_level):
        dist = random_distribution(
            simple_two_level, r_size=10, s_size=30, seed=0
        )
        with pytest.raises(ProtocolError, match="unequal"):
            tree_cartesian_product(simple_two_level, dist)

    def test_empty_instance(self, simple_two_level):
        result = tree_cartesian_product(simple_two_level, Distribution({}))
        assert total_pairs(result) == 0

    def test_empty_outputs_follow_the_compute_order(self):
        tree = two_level([3, 3, 3])
        result = tree_cartesian_product(tree, Distribution({}))
        assert tuple(result.outputs) == tree.compute_nodes

    def test_deterministic(self, simple_two_level):
        dist = random_distribution(
            simple_two_level, r_size=80, s_size=80, seed=8
        )
        first = tree_cartesian_product(simple_two_level, dist)
        second = tree_cartesian_product(simple_two_level, dist)
        assert first.cost == second.cost
        assert first.ledger.round_loads(0) == second.ledger.round_loads(0)
