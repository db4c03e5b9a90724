"""Tests for the compiled-plan cache (repro.plan.optimizer.PlanCache)."""

import numpy as np
import pytest

import repro
from repro.obs.metrics import collecting
from repro.plan import (
    PlacedRelation,
    PlanCache,
    Scan,
    Schema,
    chain_catalog,
    chain_query,
    optimize,
    optimizer,
    star_catalog,
    star_query,
)
from repro.topology import artifacts
from repro.topology.builders import two_level
from repro.topology.tree import TreeTopology


@pytest.fixture(scope="module")
def tree():
    return two_level([3, 3], uplink_bandwidth=2.0)


@pytest.fixture(scope="module")
def catalog(tree):
    return chain_catalog(tree, num_relations=3, rows=200, seed=0)


class TestKeys:
    def test_repeat_compile_hits(self, tree, catalog):
        cache = PlanCache()
        query = chain_query(3)
        first = optimize(query, tree, catalog, cache=cache)
        second = optimize(query, tree, catalog, cache=cache)
        assert second is first  # shared by reference, not recompiled
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_renamed_tree_hits(self, catalog, tree):
        # same structure, different label: plans are shared
        renamed = two_level([3, 3], uplink_bandwidth=2.0, name="replica")
        renamed_catalog = chain_catalog(
            renamed, num_relations=3, rows=200, seed=0
        )
        cache = PlanCache()
        query = chain_query(3)
        key_a = cache.key(query, tree, catalog, "optimized")
        key_b = cache.key(query, renamed, renamed_catalog, "optimized")
        assert key_a == key_b

    def test_moved_data_misses(self, tree):
        # same shape, same topology — but the placement changed
        cache = PlanCache()
        query = chain_query(3)
        here = chain_catalog(tree, num_relations=3, rows=200, seed=0)
        there = chain_catalog(tree, num_relations=3, rows=200, seed=9)
        assert cache.key(query, tree, here, "optimized") != cache.key(
            query, tree, there, "optimized"
        )

    def test_different_shape_misses(self, tree, catalog):
        cache = PlanCache()
        assert cache.key(chain_query(3), tree, catalog, "optimized") != (
            cache.key(chain_query(2), tree, catalog, "optimized")
        )

    def test_strategy_is_part_of_the_key(self, tree, catalog):
        cache = PlanCache()
        query = chain_query(3)
        optimize(query, tree, catalog, cache=cache)
        plan = optimize(query, tree, catalog, strategy="gather", cache=cache)
        assert plan.strategy == "gather"
        assert cache.hits == 0
        assert cache.misses == 2

    def test_relation_digest_is_memoized(self, tree, catalog):
        cache = PlanCache()
        query = chain_query(3)
        cache.key(query, tree, catalog, "optimized")
        digests = dict(cache._relation_digests)
        cache.key(query, tree, catalog, "optimized")
        assert dict(cache._relation_digests) == digests

    def test_digest_is_paid_once_per_relation_object(
        self, tree, catalog, monkeypatch
    ):
        scanned = []
        cardinalities_of = optimizer.cardinalities_of
        monkeypatch.setattr(
            optimizer,
            "cardinalities_of",
            lambda relation: scanned.append(relation) or cardinalities_of(relation),
        )
        cache = PlanCache()
        for _ in range(3):
            cache.key(chain_query(3), tree, catalog, "optimized")
        assert len(scanned) == len(catalog)

    def test_moving_one_row_between_two_nodes_changes_the_key(self, tree):
        schema = Schema(("x0", "x1"), (8, 8))
        rows = np.arange(12, dtype=np.int64).reshape(6, 2)
        nodes = tree.routing_index.compute_nodes[:2]
        cache = PlanCache()
        keys = [
            cache.key(
                Scan("R0"),
                tree,
                {"R0": PlacedRelation(schema, {nodes[0]: rows[:cut], nodes[1]: rows[cut:]})},
                "optimized",
            )
            for cut in (3, 4, 3)
        ]
        assert keys[0] != keys[1]  # same rows, same statistics, one row moved
        assert keys[0] == keys[2]

    def test_mapping_built_and_column_built_relations_share_a_key(self, tree):
        schema = Schema(("x0", "x1"), (8, 8))
        rows = np.arange(20, dtype=np.int64).reshape(10, 2)
        # the layout order of from_columns is free: here, reversed
        nodes = tuple(reversed(tree.routing_index.compute_nodes))
        offsets = np.array([0, 2, 2, 5, 6, 9, 10])
        from_columns = PlacedRelation.from_columns(schema, nodes, rows, offsets)
        from_mapping = PlacedRelation(
            schema,
            {node: rows[lo:hi] for node, lo, hi in zip(nodes, offsets, offsets[1:])},
        )
        cache = PlanCache()
        assert cache.key(
            Scan("R0"), tree, {"R0": from_columns}, "optimized"
        ) == cache.key(Scan("R0"), tree, {"R0": from_mapping}, "optimized")

    def test_a_hit_reads_the_tree_fingerprint_and_no_artifacts(
        self, catalog, monkeypatch
    ):
        memo = TreeTopology.__dict__["fingerprint"]
        walk = memo.func
        walked = []
        monkeypatch.setattr(memo, "func", lambda t: walked.append(t) or walk(t))
        tree = two_level([3, 3], uplink_bandwidth=2.0)
        cache = PlanCache()
        with artifacts.use_artifacts(artifacts.ArtifactCache()) as shared:
            first = optimize(chain_query(3), tree, catalog, cache=cache)
            assert walked == [tree]
            lookups = shared.hits + shared.misses
            assert optimize(chain_query(3), tree, catalog, cache=cache) is first
            # no artifact-cache lookup, no second walk of the tree
            assert walked == [tree]
            assert shared.hits + shared.misses == lookups
        assert cache.key(chain_query(3), tree, catalog, "optimized")[1] == (
            tree.fingerprint
        )


class TestAdmission:
    def test_baseline_without_optimized_sibling_admitted(self, tree, catalog):
        cache = PlanCache()
        optimize(chain_query(3), tree, catalog, strategy="gather", cache=cache)
        assert len(cache) == 1

    def test_costlier_baseline_is_admitted_and_hits(self, tree, catalog):
        # every compiled plan is cached, however its estimate compares
        # with the optimized plan of the same query
        cache = PlanCache()
        query = chain_query(3)
        with collecting() as registry:
            optimized = optimize(query, tree, catalog, cache=cache)
            gather = optimize(
                query, tree, catalog, strategy="gather", cache=cache
            )
            assert gather.estimated_cost > optimized.estimated_cost
            assert len(cache) == 2
            again = optimize(
                query, tree, catalog, strategy="gather", cache=cache
            )
        assert again is gather
        assert (cache.hits, cache.misses) == (1, 2)
        # the baseline's hit is counted under its own strategy label
        assert registry.snapshot()["counters"][
            "repro_plan_cache_hits_total"
        ] == {"strategy=gather": 1}


class TestLru:
    def test_eviction_bounds_entries(self, tree, catalog, monkeypatch):
        monkeypatch.setattr(optimizer, "PLAN_CACHE_ENTRIES", 2)
        cache = PlanCache()
        star_cat = dict(catalog)
        star_cat.update(star_catalog(tree, num_satellites=2, seed=1))
        for query in (chain_query(3), chain_query(2), star_query(2)):
            optimize(query, tree, star_cat, cache=cache)
        assert len(cache) == 2
        # the oldest entry was evicted
        optimize(chain_query(3), tree, star_cat, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 4

    def test_lookup_touches_lru_order(self, tree, monkeypatch):
        monkeypatch.setattr(optimizer, "PLAN_CACHE_ENTRIES", 2)
        catalog = chain_catalog(tree, num_relations=4, rows=200, seed=0)
        cache = PlanCache()
        optimize(chain_query(3), tree, catalog, cache=cache)
        optimize(chain_query(2), tree, catalog, cache=cache)
        optimize(chain_query(3), tree, catalog, cache=cache)  # touch
        optimize(chain_query(4), tree, catalog, cache=cache)  # evicts 2-chain
        assert optimize(chain_query(3), tree, catalog, cache=cache)
        assert cache.hits == 2


class TestCounters:
    def test_hits_and_misses_labeled_by_strategy(self, tree, catalog):
        cache = PlanCache()
        query = chain_query(3)
        with collecting() as registry:
            optimize(query, tree, catalog, cache=cache)
            optimize(query, tree, catalog, cache=cache)
            optimize(query, tree, catalog, strategy="gather", cache=cache)
        counters = registry.snapshot()["counters"]
        assert counters["repro_plan_cache_misses_total"] == {
            "strategy=optimized": 1,
            "strategy=gather": 1,
        }
        assert counters["repro_plan_cache_hits_total"] == {
            "strategy=optimized": 1
        }


class TestEngineWiring:
    def test_run_plan_accepts_plan_cache(self, tree, catalog):
        cache = PlanCache()
        query = chain_query(3)
        cold = repro.run_plan(query, tree, catalog)
        first = repro.run_plan(query, tree, catalog, plan_cache=cache)
        warm = repro.run_plan(query, tree, catalog, plan_cache=cache)
        assert cache.hits == 1
        assert warm.cost == cold.cost == first.cost
        assert warm.rounds == cold.rounds
