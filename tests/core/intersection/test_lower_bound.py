"""Unit tests for the Theorem 1 lower bound."""

import pytest

from repro.core.intersection.lower_bound import intersection_lower_bound
from repro.data.distribution import Distribution
from repro.errors import TopologyError
from repro.topology.builders import star, two_level
from repro.topology.tree import TreeTopology


class TestIntersectionLowerBound:
    def test_min_of_relation_sizes_caps_the_bound(self):
        tree = star(2, bandwidth=1.0)
        dist = Distribution(
            {"v1": {"R": list(range(5))}, "v2": {"S": list(range(100, 200))}}
        )
        bound = intersection_lower_bound(tree, dist)
        # min(|R|, |S|, N_v1, N_v2) / 2 = |R| / 2 on both leaf links.
        assert bound.value == 2.5

    def test_side_sums_cap_the_bound(self):
        tree = star(3, bandwidth=1.0)
        dist = Distribution(
            {
                "v1": {"R": [1, 2]},
                "v2": {"S": list(range(10, 60))},
                "v3": {"S": list(range(100, 150))},
            }
        )
        bound = intersection_lower_bound(tree, dist)
        # Each leaf edge: min(2, 100, N_v, N - N_v) / 2 = 1.
        assert bound.value == 1.0

    def test_bandwidth_divides(self):
        tree = star(2, bandwidth=[0.5, 4.0])
        dist = Distribution(
            {
                "v1": {"R": list(range(10))},
                "v2": {"S": list(range(100, 110))},
            }
        )
        bound = intersection_lower_bound(tree, dist)
        assert bound.value == 10 / (2 * 0.5)
        assert bound.bottleneck_edge == tree.canonical_edge("v1", "w")

    def test_uplink_can_be_the_bottleneck(self):
        tree = two_level([2, 2], leaf_bandwidth=10.0, uplink_bandwidth=0.1)
        dist = Distribution(
            {
                "v1": {"R": list(range(20))},
                "v3": {"S": list(range(100, 140))},
            }
        )
        bound = intersection_lower_bound(tree, dist)
        assert bound.value == 20 / (2 * 0.1)
        assert "core" in bound.bottleneck_edge[0] or "core" in bound.bottleneck_edge[1]

    def test_empty_relation_gives_zero(self):
        tree = star(2)
        dist = Distribution({"v1": {"S": [1, 2, 3]}})
        bound = intersection_lower_bound(tree, dist)
        assert bound.value == 0.0

    def test_per_edge_values_reported(self, simple_two_level):
        dist = Distribution(
            {"v1": {"R": [1]}, "v3": {"S": [2]}}
        )
        bound = intersection_lower_bound(simple_two_level, dist)
        assert set(bound.per_edge) == set(simple_two_level.undirected_edges())

    def test_requires_symmetry(self):
        tree = TreeTopology({("a", "b"): 1.0, ("b", "a"): 2.0}, ["a", "b"])
        with pytest.raises(TopologyError):
            intersection_lower_bound(tree, Distribution({"a": {"R": [1]}}))

    def test_ratio_of(self):
        tree = star(2)
        dist = Distribution(
            {"v1": {"R": [1, 2]}, "v2": {"S": [1, 3]}}
        )
        bound = intersection_lower_bound(tree, dist)
        assert bound.ratio_of(2 * bound.value) == pytest.approx(2.0)
