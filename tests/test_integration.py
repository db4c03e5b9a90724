"""End-to-end integration tests across the whole library.

These exercise the public package API (``import repro``) the way the
examples do: build a topology, generate a placement, run all three tasks
with both the paper's algorithms and the baselines, and check costs
against lower bounds and correctness against ground truth.
"""

import numpy as np
import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestQuickstartFlow:
    def test_readme_flow(self):
        tree = repro.two_level([4, 4], uplink_bandwidth=2.0)
        dist = repro.random_distribution(
            tree, r_size=1000, s_size=5000, policy="zipf", seed=0
        )
        report = repro.run("set-intersection", tree, dist)
        assert report.rounds == 1
        assert report.cost <= 8 * report.lower_bound


class TestCrossTaskSuite:
    @pytest.mark.parametrize("policy", ["uniform", "zipf", "single-heavy"])
    def test_all_tasks_all_topologies(self, any_topology, policy):
        dist = repro.random_distribution(
            any_topology, r_size=200, s_size=200, policy=policy, seed=11
        )
        intersection, cartesian, sorting = (
            repro.run(task, any_topology, dist, placement=policy)
            for task in ("set-intersection", "cartesian-product", "sorting")
        )
        assert intersection.rounds == 1
        assert cartesian.rounds == 1
        assert sorting.rounds <= 4

    def test_normalization_preserves_results(self):
        # Run intersection on a topology with an internal compute node,
        # normalized per Section 2.1, and check the answer is unchanged.
        tree = repro.TreeTopology.from_undirected(
            {("a", "m"): 1.0, ("m", "b"): 2.0, ("m", "c"): 2.0},
            ["a", "m", "b", "c"],
        )
        placements = {
            "a": {"R": np.arange(0, 30), "S": np.arange(100, 120)},
            "m": {"R": np.arange(30, 50), "S": np.arange(0, 10)},
            "b": {"S": np.arange(10, 40)},
            "c": {"R": np.arange(50, 55), "S": np.arange(200, 230)},
        }
        dist = repro.Distribution(placements)
        expected = set(
            np.intersect1d(dist.relation("R"), dist.relation("S")).tolist()
        )
        normalized = repro.normalize(tree, virtual_bandwidth="sum")
        remapped = repro.Distribution(
            {normalized.node_map.get(n, n): rel for n, rel in placements.items()}
        )
        result = repro.tree_intersect(normalized.tree, remapped, seed=1)
        found: set = set()
        for values in result.outputs.values():
            found |= set(values.tolist())
        assert found == expected


class TestBaselineComparisons:
    def test_topology_aware_wins_on_skewed_star(self):
        # Heterogeneous bandwidths + skewed placement: the weighted
        # algorithms must beat the uniform baselines clearly.
        tree = repro.star(8, bandwidth=[16, 16, 8, 8, 4, 4, 1, 1])
        dist = repro.random_distribution(
            tree, r_size=2000, s_size=2000, policy="proportional", seed=13
        )
        aware = repro.run("cartesian-product", tree, dist, protocol="tree")
        agnostic = repro.run(
            "cartesian-product", tree, dist, protocol="classic-hypercube"
        )
        assert aware.cost < agnostic.cost

    def test_weighted_sort_beats_terasort_on_skewed_tree(self):
        tree = repro.two_level(
            [4, 4], leaf_bandwidth=[4.0, 1.0], uplink_bandwidth=1.0
        )
        values = repro.make_sort_input(20_000, seed=3)
        nodes = tree.left_to_right_compute_order()
        sizes = repro.place_zipf(20_000, nodes, exponent=1.5)
        dist = repro.distribute(values, sizes, tag="R", shuffle_seed=4)
        wts = repro.run("sorting", tree, dist, protocol="wts", seed=5)
        classic = repro.run("sorting", tree, dist, protocol="terasort", seed=5)
        assert wts.cost < classic.cost

    def test_gather_optimal_for_dominant_node(self):
        tree = repro.star(5)
        dist = repro.random_tuple_distribution(
            tree, r_size=500, s_size=500, policy="single-heavy", seed=17
        )
        gather = repro.run("equijoin", tree, dist, protocol="gather")
        assert gather.cost <= 3 * max(gather.lower_bound, 1.0)


class TestCostModelConsistency:
    def test_cost_identical_across_runs(self, any_topology):
        dist = repro.random_distribution(
            any_topology, r_size=300, s_size=300, seed=19
        )
        costs = {
            repro.tree_cartesian_product(any_topology, dist).cost
            for _ in range(3)
        }
        assert len(costs) == 1

    def test_bits_cost_scales_with_bits(self, simple_star):
        dist = repro.random_distribution(simple_star, r_size=100, s_size=100, seed=2)
        result = repro.tree_intersect(simple_star, dist, seed=0)
        assert result.cost_bits == result.cost * 64
