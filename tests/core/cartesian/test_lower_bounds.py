"""Unit tests for the cartesian-product lower bounds (Theorems 3 and 4)."""

import pytest

from repro.core.cartesian.lower_bounds import (
    cartesian_lower_bound,
    cartesian_lower_bound_cover,
    cartesian_lower_bound_flow,
)
from repro.core.cartesian.unequal import unequal_lower_bound_flow
from repro.data.distribution import Distribution
from repro.sim.cluster import Cluster
from repro.topology.builders import star, two_level


def balanced_star_instance(bandwidths):
    tree = star(len(bandwidths), bandwidth=bandwidths)
    n_per_node = 10
    placements = {}
    for i in range(1, len(bandwidths) + 1):
        placements[f"v{i}"] = {
            "R": list(range(i * 1000, i * 1000 + n_per_node // 2)),
            "S": list(range(i * 2000, i * 2000 + n_per_node // 2)),
        }
    return tree, Distribution(placements)


class TestFlowBound:
    def test_balanced_star(self):
        tree, dist = balanced_star_instance([1.0, 1.0, 1.0, 1.0])
        bound = cartesian_lower_bound_flow(tree, dist)
        # each leaf edge: min(10, 30) / (2 * 1) = 5
        assert bound.value == 5.0

    def test_slow_link_dominates(self):
        tree, dist = balanced_star_instance([0.1, 1.0, 1.0, 1.0])
        bound = cartesian_lower_bound_flow(tree, dist)
        assert bound.value == 10 / (2 * 0.1)
        assert bound.bottleneck_edge == tree.canonical_edge("v1", "w")

    def test_uplink_bottleneck(self):
        tree = two_level([2, 2], leaf_bandwidth=5.0, uplink_bandwidth=0.5)
        dist = Distribution(
            {
                "v1": {"R": list(range(10))},
                "v3": {"S": list(range(100, 110))},
            }
        )
        bound = cartesian_lower_bound_flow(tree, dist)
        assert bound.value == 10 / (2 * 0.5)

    def test_empty_distribution(self):
        tree = star(3)
        bound = cartesian_lower_bound_flow(tree, Distribution({}))
        assert bound.value == 0.0


class TestCoverBound:
    def test_uniform_star(self):
        tree, dist = balanced_star_instance([1.0] * 4)
        bound = cartesian_lower_bound_cover(tree, dist)
        # root is the hub; best cover = the 4 leaves: N / sqrt(4) = 40/2
        assert bound.value == pytest.approx(20.0)

    def test_inapplicable_when_root_is_compute(self):
        tree = star(3)
        dist = Distribution(
            {
                "v1": {"R": list(range(100))},
                "v2": {"S": [1]},
                "v3": {"S": [2]},
            }
        )
        bound = cartesian_lower_bound_cover(tree, dist)
        assert bound.value == 0.0
        assert "inapplicable" in bound.description

    def test_cover_can_beat_flow(self):
        # Uniform data, uniform bandwidth: flow gives N_v per edge, the
        # counting bound gives N/sqrt(p) which is larger for p < (p/2)^2.
        tree, dist = balanced_star_instance([1.0] * 9)
        flow = cartesian_lower_bound_flow(tree, dist)
        cover = cartesian_lower_bound_cover(tree, dist)
        assert cover.value > flow.value

    def test_internal_cover_on_three_racks(self):
        # Very fast leaf links, slow uplinks, three racks each below
        # half the data: G-dagger roots at the core and the best cover
        # sits at the rack routers, bounded by the uplink bandwidths.
        tree = two_level(
            [2, 2, 2], leaf_bandwidth=100.0, uplink_bandwidth=1.0
        )
        dist = Distribution(
            {
                f"v{i}": {"R": list(range(i * 100, i * 100 + 5)),
                          "S": list(range(i * 1000, i * 1000 + 5))}
                for i in range(1, 7)
            }
        )
        bound = cartesian_lower_bound_cover(tree, dist)
        # N = 60, cover = {w1, w2, w3}: 60 / sqrt(3)
        assert bound.value == pytest.approx(60 / 3**0.5)

    def test_empty_distribution(self):
        tree = star(3)
        bound = cartesian_lower_bound_cover(tree, Distribution({}))
        assert bound.value == 0.0


class TestCombinedBound:
    def test_takes_maximum(self):
        tree, dist = balanced_star_instance([1.0] * 9)
        combined = cartesian_lower_bound(tree, dist)
        flow = cartesian_lower_bound_flow(tree, dist)
        cover = cartesian_lower_bound_cover(tree, dist)
        assert combined.value == max(flow.value, cover.value)

    def test_description_names_the_winner(self):
        tree, dist = balanced_star_instance([1.0] * 9)
        combined = cartesian_lower_bound(tree, dist)
        assert "Theorem 4" in combined.description


def test_the_flow_bounds_stay_below_a_one_round_witness_on_star3():
    """R at v1 and v2, S at v1 and v3: sending R@v1 -> v3, R@v2 -> v1
    and S@v3 -> v2 meets every pair and puts one element on each
    directed link, so the optimum costs at most 1; the flow bounds
    (Theorems 3 and 8) charge each link half of its lighter side, 1."""
    tree = star(3)
    dist = Distribution(
        {"v1": {"R": [1], "S": [10]}, "v2": {"R": [2]}, "v3": {"S": [30]}}
    )
    cluster = Cluster(tree, dist)
    at = cluster.compute_order.index
    with cluster.round() as ctx:
        ctx.exchange_runs(
            [at("v1"), at("v2"), at("v3")],
            [at("v3"), at("v1"), at("v2")],
            [1, 1, 1],
            [1, 2, 30],
            tag="sent",
        )
    holds = {
        v: set(cluster.local(v, "R")) | set(cluster.local(v, "S"))
        | set(cluster.local(v, "sent"))
        for v in cluster.compute_order
    }
    assert all(
        any({r, s} <= held for held in holds.values()) for r in (1, 2) for s in (10, 30)
    )
    assert cluster.ledger.total_cost() == 1.0
    for bound in (cartesian_lower_bound_flow, unequal_lower_bound_flow):
        assert bound(tree, dist).value == 1.0
