"""Protocol-level tests for StarIntersect (Alg. 1) and TreeIntersect (Alg. 2)."""

import numpy as np
import pytest

from repro.core.intersection.lower_bound import intersection_lower_bound
from repro.core.intersection.star import star_intersect
from repro.core.intersection.tree import tree_intersect
from repro.data.distribution import Distribution
from repro.data.generators import random_distribution
from repro.errors import ProtocolError
from repro.topology.builders import caterpillar, star, two_level


def emitted_union(result) -> set:
    out: set = set()
    for values in result.outputs.values():
        out |= set(np.asarray(values).tolist())
    return out


def expected_intersection(dist) -> set:
    return set(
        np.intersect1d(dist.relation("R"), dist.relation("S")).tolist()
    )


class TestTreeIntersectCorrectness:
    @pytest.mark.parametrize("policy", ["uniform", "zipf", "single-heavy"])
    def test_exact_intersection(self, any_topology, policy):
        dist = random_distribution(
            any_topology, r_size=150, s_size=700, policy=policy, seed=3
        )
        result = tree_intersect(any_topology, dist, seed=1)
        assert emitted_union(result) == expected_intersection(dist)

    def test_single_round(self, any_topology):
        dist = random_distribution(any_topology, r_size=50, s_size=200, seed=0)
        result = tree_intersect(any_topology, dist, seed=0)
        assert result.rounds == 1

    def test_swapped_relations(self, simple_star):
        # |R| > |S|: the protocol must swap roles internally.
        dist = random_distribution(simple_star, r_size=400, s_size=100, seed=4)
        result = tree_intersect(simple_star, dist, seed=0)
        assert result.meta["swapped_relations"]
        assert emitted_union(result) == expected_intersection(dist)

    def test_empty_r(self, simple_star):
        dist = Distribution({"v1": {"S": [1, 2, 3]}, "v2": {"R": []}})
        result = tree_intersect(simple_star, dist)
        assert emitted_union(result) == set()

    def test_disjoint_relations(self, simple_star):
        dist = Distribution(
            {"v1": {"R": [1, 2, 3]}, "v2": {"S": [10, 20, 30]}}
        )
        result = tree_intersect(simple_star, dist)
        assert emitted_union(result) == set()

    def test_identical_relations(self, simple_star):
        values = list(range(50))
        dist = Distribution({"v1": {"R": values}, "v2": {"S": values}})
        result = tree_intersect(simple_star, dist)
        assert emitted_union(result) == set(values)

    def test_single_compute_node(self):
        tree = star(1)
        dist = Distribution({"v1": {"R": [1, 2, 3], "S": [2, 3, 4]}})
        result = tree_intersect(tree, dist)
        assert emitted_union(result) == {2, 3}
        assert result.cost == 0.0  # everything is already local

    def test_deterministic_in_seed(self, simple_two_level):
        dist = random_distribution(
            simple_two_level, r_size=100, s_size=300, seed=1
        )
        first = tree_intersect(simple_two_level, dist, seed=7)
        second = tree_intersect(simple_two_level, dist, seed=7)
        assert first.cost == second.cost

    def test_seed_changes_routing(self, simple_two_level):
        # The hash functions differ per seed, so the per-edge load
        # profile must change even if the bottleneck cost coincides.
        dist = random_distribution(
            simple_two_level, r_size=100, s_size=300, seed=1
        )
        profiles = {
            tuple(
                sorted(
                    tree_intersect(simple_two_level, dist, seed=s)
                    .ledger.round_loads(0)
                    .items()
                )
            )
            for s in range(5)
        }
        assert len(profiles) > 1

    def test_explicit_blocks_override(self, simple_star):
        dist = random_distribution(simple_star, r_size=50, s_size=150, seed=2)
        result = tree_intersect(
            simple_star, dist, blocks=[simple_star.compute_nodes]
        )
        assert result.meta["num_blocks"] == 1
        assert emitted_union(result) == expected_intersection(dist)

    def test_explicit_blocks_must_hold_compute_nodes(self, simple_star):
        dist = random_distribution(simple_star, r_size=50, s_size=150, seed=2)
        blocks = [simple_star.compute_nodes + simple_star.routers]
        with pytest.raises(ProtocolError, match="does not compute"):
            tree_intersect(simple_star, dist, blocks=blocks)


class TestTreeIntersectCost:
    @pytest.mark.parametrize("policy", ["uniform", "zipf", "single-heavy"])
    def test_cost_tracks_lower_bound(self, policy):
        tree = two_level([3, 3], uplink_bandwidth=0.5)
        dist = random_distribution(
            tree, r_size=500, s_size=3000, policy=policy, seed=5
        )
        result = tree_intersect(tree, dist, seed=2)
        bound = intersection_lower_bound(tree, dist)
        # Theorem 2 allows O(log N log V); empirically a small constant.
        assert result.cost <= 6 * bound.value

    def test_beta_edges_carry_at_most_r_with_slack(self):
        tree = two_level([2, 2], leaf_bandwidth=4.0)
        dist = random_distribution(
            tree, r_size=200, s_size=2000, policy="uniform", seed=6
        )
        sizes = {v: dist.size(v) for v in tree.compute_nodes}
        result = tree_intersect(tree, dist, seed=3)
        from repro.core.intersection.partition import classify_edges

        classification = classify_edges(tree, sizes, 200)
        loads = result.ledger.round_loads(0)
        for edge in classification.beta:
            for directed in (edge, (edge[1], edge[0])):
                # w.h.p. within a small constant of |R| (Theorem 2 case Eβ)
                assert loads.get(directed, 0) <= 3 * 200


class TestTreeIntersectClassifiesOnce:
    """One α/β classification per run feeds both the partition and the
    meta's edge counts, with or without a ``blocks=`` override."""

    @pytest.mark.parametrize("override", [False, True])
    def test_one_classification_feeds_the_meta(self, monkeypatch, override):
        import repro.core.intersection.tree as tree_module
        from repro.core.intersection import partition

        tree = two_level([2, 2], leaf_bandwidth=4.0)
        dist = random_distribution(
            tree, r_size=200, s_size=2000, policy="uniform", seed=6
        )
        sizes = {v: dist.size(v) for v in tree.compute_nodes}
        classification = partition.classify_edges(tree, sizes, 200)
        blocks = [tree.compute_nodes] if override else None
        wanted = blocks or partition.balanced_partition(tree, sizes, 200)
        calls = []

        def counted(*args):
            calls.append(args)
            return classification

        monkeypatch.setattr(tree_module, "classify_edges", counted)
        monkeypatch.setattr(partition, "classify_edges", counted)
        result = tree_intersect(tree, dist, seed=3, blocks=blocks)
        assert len(calls) == 1
        assert result.meta["num_blocks"] == len(wanted) > (0 if override else 1)
        assert result.meta["num_alpha_edges"] == classification.num_alpha
        assert result.meta["num_beta_edges"] == classification.num_beta > 0


class TestStarIntersect:
    def test_exact_intersection(self, simple_star):
        dist = random_distribution(simple_star, r_size=120, s_size=600, seed=8)
        result = star_intersect(simple_star, dist, seed=1)
        assert emitted_union(result) == expected_intersection(dist)

    def test_rejects_non_star(self, simple_two_level):
        dist = random_distribution(
            simple_two_level, r_size=10, s_size=10, seed=0
        )
        with pytest.raises(ProtocolError, match="star"):
            star_intersect(simple_two_level, dist)

    def test_single_round(self, simple_star):
        dist = random_distribution(simple_star, r_size=50, s_size=100, seed=2)
        assert star_intersect(simple_star, dist).rounds == 1

    def test_beta_nodes_join_locally(self):
        tree = star(3)
        # v3 is data-rich: min(N_v3, N - N_v3) = 12 >= |R| = 3.
        dist = Distribution(
            {
                "v1": {"R": [1, 2, 3], "S": [100, 101, 102, 103]},
                "v2": {"S": [1, 104, 105, 106, 107]},
                "v3": {"S": [2, 3] + list(range(200, 220))},
            }
        )
        result = star_intersect(tree, dist, seed=5)
        assert "v3" in result.meta["v_beta"]
        assert emitted_union(result) == {1, 2, 3}

    def test_all_alpha_when_balanced(self, simple_star):
        dist = random_distribution(
            simple_star, r_size=300, s_size=300, policy="uniform", seed=1
        )
        result = star_intersect(simple_star, dist)
        assert result.meta["v_beta"] == []
        assert emitted_union(result) == expected_intersection(dist)

    def test_matches_tree_variant_quality(self, simple_star):
        dist = random_distribution(simple_star, r_size=200, s_size=900, seed=9)
        bound = intersection_lower_bound(simple_star, dist)
        star_cost = star_intersect(simple_star, dist, seed=0).cost
        tree_cost = tree_intersect(simple_star, dist, seed=0).cost
        assert star_cost <= 6 * bound.value
        assert tree_cost <= 6 * bound.value

    def test_empty_instance(self, simple_star):
        dist = Distribution({"v1": {"R": [], "S": []}})
        result = star_intersect(simple_star, dist)
        assert emitted_union(result) == set()
        assert result.cost == 0.0
