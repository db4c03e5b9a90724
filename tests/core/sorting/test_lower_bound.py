"""Unit tests for the Theorem 6 sorting lower bound."""

import pytest

import repro
from repro.core.sorting.lower_bound import sorting_lower_bound
from repro.data.distribution import Distribution
from repro.data.generators import adversarial_sorted_distribution
from repro.topology.builders import star, two_level


class TestSortingLowerBound:
    def test_balanced_star(self):
        tree = star(4, bandwidth=1.0)
        dist = Distribution(
            {f"v{i}": {"R": list(range(i * 100, i * 100 + 10))} for i in range(1, 5)}
        )
        bound = sorting_lower_bound(tree, dist)
        assert bound.value == 5.0  # min(10, 30) / 2 on each unit leaf link

    def test_slow_uplink(self):
        tree = two_level([2, 2], leaf_bandwidth=4.0, uplink_bandwidth=0.5)
        dist = Distribution(
            {f"v{i}": {"R": list(range(i * 50, i * 50 + 8))} for i in range(1, 5)}
        )
        bound = sorting_lower_bound(tree, dist)
        assert bound.value == 16 / (2 * 0.5)  # rack split 16/16 over bw 0.5

    def test_empty_side_contributes_zero(self):
        tree = star(3)
        dist = Distribution({"v1": {"R": list(range(10))}})
        bound = sorting_lower_bound(tree, dist)
        # every split isolates empty nodes or v1: min is always 0
        assert bound.value == 0.0

    def test_only_requested_tag_counts(self):
        tree = star(2)
        dist = Distribution(
            {"v1": {"R": [1, 2], "X": list(range(100))},
             "v2": {"R": [3, 4]}}
        )
        bound = sorting_lower_bound(tree, dist)
        assert bound.value == 1.0

    def test_adversarial_distribution_has_positive_bound(self):
        tree = two_level([3, 3])
        dist = adversarial_sorted_distribution(tree, total=600)
        bound = sorting_lower_bound(tree, dist)
        assert bound.value >= 150.0  # uplink split is 300/300 at bw 1

    @pytest.mark.parametrize("protocol", ["terasort", "wts"])
    def test_the_protocols_cost_at_least_the_bound_on_its_adversarial_placement(
        self, protocol
    ):
        """Theorem 6's own witness: half the lighter side per link (the
        link is full duplex), which both sorting protocols pay."""
        tree = two_level([3, 3])
        dist = adversarial_sorted_distribution(tree, total=4000)
        bound = sorting_lower_bound(tree, dist)
        assert bound.value == 999.5
        for seed in range(3):
            report = repro.run("sorting", tree, dist, protocol=protocol, seed=seed)
            assert report.cost >= bound.value
