"""Protocol-level tests for TeraSort and weighted TeraSort."""

import numpy as np
import pytest

from repro.core.sorting.lower_bound import sorting_lower_bound
from repro.core.sorting.ordering import verify_sorted_output
from repro.core.sorting.terasort import (
    broadcast_splitters,
    sample_probability,
    select_splitters,
    terasort,
)
from repro.core.sorting.wts import heavy_threshold, weighted_terasort
from repro.data.distribution import Distribution
from repro.data.generators import (
    adversarial_sorted_distribution,
    distribute,
    make_sort_input,
    place_single_heavy,
    place_uniform,
    place_zipf,
)
from repro.sim.cluster import Cluster
from repro.topology.builders import star, two_level


def sorted_ok(tree, dist, result):
    verify_sorted_output(
        tree, result.outputs, result.meta["order"], dist.relation("R")
    )


class TestSamplingHelpers:
    def test_probability_clamped(self):
        assert sample_probability(10, 5) == 1.0
        assert 0 < sample_probability(4, 10**6) < 0.01

    def test_probability_of_empty_input(self):
        assert sample_probability(4, 0) == 0.0

    def test_select_splitters_uniform(self):
        samples = np.arange(100)
        splitters = select_splitters(samples, [1, 1, 1, 1])
        assert len(splitters) == 3
        assert splitters.tolist() == [24, 49, 74]

    def test_select_splitters_weighted(self):
        samples = np.arange(100)
        splitters = select_splitters(samples, [3, 1])
        # node 1 is responsible for 3 of 4 intervals
        assert len(splitters) == 1
        assert splitters[0] == 74

    def test_select_splitters_clamps_overflow(self):
        samples = np.arange(10)
        splitters = select_splitters(samples, [5, 5, 5])
        assert all(s <= 9 for s in splitters)

    def test_select_splitters_empty_samples(self):
        assert len(select_splitters(np.empty(0, np.int64), [1, 1])) == 0

    def test_heavy_threshold(self):
        assert heavy_threshold(4, 800) == 100.0


class TestBroadcastSplitters:
    """The coordinator's one multicast run: every other listed node
    gets the splitters, each link of their Steiner tree carries them
    once, and nothing is registered when there is nothing to send."""

    def test_every_other_node_receives_the_splitters_once(self):
        tree = two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
        cluster = Cluster(tree)
        order = cluster.compute_order
        with cluster.round() as ctx:
            broadcast_splitters(ctx, np.array([1, 0, 4]), np.array([10, 20]))
        held = {node: cluster.local(node, "sort.splitters").tolist() for node in order}
        assert held == {
            order[0]: [10, 20],
            order[1]: [],
            order[2]: [],
            order[3]: [],
            order[4]: [10, 20],
        }
        # v2 up to its rack switch and down to v1; the switch up to the
        # core, down the other rack to v5: five links, two elements each
        assert sorted(cluster.ledger.round_loads(0).values()) == [2] * 5

    @pytest.mark.parametrize(
        "ids, splitters", [([3], [10, 20]), ([1, 0, 4], []), ([], [])]
    )
    def test_nothing_to_broadcast_registers_nothing(self, ids, splitters):
        cluster = Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))
        with cluster.round() as ctx:
            broadcast_splitters(
                ctx, np.array(ids, np.intp), np.array(splitters, np.int64)
            )
            assert not ctx._multicasts
        assert cluster.ledger.round_loads(0) == {}


class TestTeraSort:
    @pytest.mark.parametrize("policy", [place_uniform, place_zipf])
    def test_sorts_correctly(self, any_topology, policy):
        nodes = any_topology.left_to_right_compute_order()
        values = make_sort_input(3000, seed=2)
        dist = distribute(values, policy(3000, nodes), tag="R", shuffle_seed=3)
        result = terasort(any_topology, dist, seed=1)
        sorted_ok(any_topology, dist, result)

    def test_three_rounds(self, simple_star):
        dist = distribute(
            make_sort_input(500, seed=0),
            place_uniform(500, simple_star.left_to_right_compute_order()),
            tag="R",
        )
        assert terasort(simple_star, dist, seed=0).rounds == 3

    def test_empty_input(self, simple_star):
        result = terasort(simple_star, Distribution({}), seed=0)
        assert all(len(v) == 0 for v in result.outputs.values())

    def test_handles_duplicates(self, simple_star):
        values = np.array([5] * 100 + [3] * 100 + [7] * 100)
        dist = distribute(
            values,
            place_uniform(300, simple_star.left_to_right_compute_order()),
            tag="R",
            shuffle_seed=1,
        )
        result = terasort(simple_star, dist, seed=4)
        sorted_ok(simple_star, dist, result)


class TestWeightedTeraSort:
    @pytest.mark.parametrize(
        "policy", [place_uniform, place_zipf, place_single_heavy]
    )
    def test_sorts_correctly(self, any_topology, policy):
        nodes = any_topology.left_to_right_compute_order()
        values = make_sort_input(3000, seed=5)
        dist = distribute(values, policy(3000, nodes), tag="R", shuffle_seed=6)
        result = weighted_terasort(any_topology, dist, seed=2)
        sorted_ok(any_topology, dist, result)

    def test_adversarial_placement(self, any_topology):
        dist = adversarial_sorted_distribution(any_topology, total=2000)
        result = weighted_terasort(any_topology, dist, seed=3)
        sorted_ok(any_topology, dist, result)

    def test_four_rounds_without_shortcut(self, simple_two_level):
        dist = distribute(
            make_sort_input(2000, seed=1),
            place_uniform(2000, simple_two_level.left_to_right_compute_order()),
            tag="R",
        )
        result = weighted_terasort(simple_two_level, dist, seed=0)
        assert result.rounds == 4
        assert result.meta["strategy"] == "wts"

    def test_gather_shortcut_on_dominant_node(self, simple_two_level):
        nodes = simple_two_level.left_to_right_compute_order()
        dist = distribute(
            make_sort_input(1000, seed=2),
            place_single_heavy(1000, nodes, heavy_fraction=0.9),
            tag="R",
        )
        result = weighted_terasort(simple_two_level, dist, seed=0)
        assert result.meta["strategy"] == "gather"
        assert result.rounds == 1
        sorted_ok(simple_two_level, dist, result)

    def test_gather_shortcut_can_be_disabled(self, simple_two_level):
        nodes = simple_two_level.left_to_right_compute_order()
        dist = distribute(
            make_sort_input(1000, seed=2),
            place_single_heavy(1000, nodes, heavy_fraction=0.9),
            tag="R",
        )
        result = weighted_terasort(
            simple_two_level, dist, seed=0, gather_shortcut=False
        )
        assert result.meta["strategy"] == "wts"
        sorted_ok(simple_two_level, dist, result)

    def test_light_nodes_end_empty(self, simple_two_level):
        nodes = simple_two_level.left_to_right_compute_order()
        dist = distribute(
            make_sort_input(2000, seed=3),
            place_zipf(2000, nodes, exponent=2.0),
            tag="R",
        )
        result = weighted_terasort(simple_two_level, dist, seed=1)
        if result.meta["strategy"] == "wts":
            for node in result.meta["light"]:
                assert len(result.outputs[node]) == 0

    def test_heavy_nodes_in_traversal_order(self, simple_two_level):
        dist = adversarial_sorted_distribution(simple_two_level, total=3000)
        result = weighted_terasort(simple_two_level, dist, seed=1)
        order = result.meta["order"]
        heavy = result.meta["heavy"]
        positions = [order.index(v) for v in heavy]
        assert positions == sorted(positions)

    def test_proportional_split_ablation_still_sorts(self, simple_two_level):
        dist = adversarial_sorted_distribution(simple_two_level, total=2000)
        result = weighted_terasort(
            simple_two_level, dist, seed=1, proportional_split=False
        )
        sorted_ok(simple_two_level, dist, result)

    def test_cost_within_constant_of_bound_at_scale(self):
        # Theorem 7 regime: N well above 4|V_C|^2 ln(|V_C| N).
        tree = two_level([3, 3], uplink_bandwidth=0.5)
        dist = adversarial_sorted_distribution(tree, total=60_000)
        result = weighted_terasort(tree, dist, seed=7)
        bound = sorting_lower_bound(tree, dist)
        assert result.cost <= 6 * bound.value

    def test_empty_input(self, simple_star):
        result = weighted_terasort(simple_star, Distribution({}), seed=0)
        assert result.meta["strategy"] == "empty"

    def test_single_node(self):
        tree = star(1)
        dist = Distribution({"v1": {"R": [3, 1, 2]}})
        result = weighted_terasort(tree, dist, seed=0)
        sorted_ok(tree, dist, result)
        assert result.cost == 0.0

    def test_deterministic_in_seed(self, simple_two_level):
        dist = adversarial_sorted_distribution(simple_two_level, total=1000)
        first = weighted_terasort(simple_two_level, dist, seed=9)
        second = weighted_terasort(simple_two_level, dist, seed=9)
        assert first.cost == second.cost
