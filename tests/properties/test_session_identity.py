"""Property: warm (cached-artifact) serving is byte-identical to cold runs.

The whole session layer rests on one invariant: topology artifacts and
cached plans are pure functions of (topology structure, placement
statistics), so sharing them can never change a result.  These tests
let Hypothesis hunt for a counterexample across random trees,
placements, and interleavings that the fixed serve-benchmark grid would
miss.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.serve import strip_report
from repro.plan import PlanCache, chain_catalog, chain_query, optimize
from repro.session import EngineSession
from repro.topology.artifacts import ArtifactCache, use_artifacts
from tests.strategies import tree_topologies


def _distribution(tree, seed, policy="zipf"):
    return repro.random_distribution(
        tree, r_size=120, s_size=120, policy=policy, seed=seed
    )


class TestWarmColdIdentity:
    @given(
        tree=tree_topologies(min_nodes=4, max_nodes=10),
        seed=st.integers(0, 4),
        task=st.sampled_from(["set-intersection", "sorting", "equijoin"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_session_run_matches_cold_run(self, tree, seed, task):
        dist = _distribution(tree, seed)
        cold = repro.run(task, tree, dist, seed=seed)
        with EngineSession(tree) as session:
            warm_first = session.run(task, dist, seed=seed)
            warm_again = session.run(task, dist, seed=seed)
        assert strip_report(warm_first) == strip_report(cold)
        assert strip_report(warm_again) == strip_report(cold)

    @given(
        tree=tree_topologies(min_nodes=4, max_nodes=9),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_cached_plan_matches_fresh_compile(self, tree, seed):
        catalog = chain_catalog(tree, num_relations=3, rows=80, seed=seed)
        query = chain_query(3)
        fresh = optimize(query, tree, catalog)
        cache = PlanCache()
        optimize(query, tree, catalog, cache=cache)
        cached = optimize(query, tree, catalog, cache=cache)
        assert cache.hits == 1
        assert cached == fresh  # frozen dataclasses: structural equality

    @given(
        trees=st.lists(
            tree_topologies(min_nodes=4, max_nodes=8),
            min_size=2,
            max_size=3,
        ),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_interleaved_topologies_share_one_cache(self, trees, seed):
        """One artifact cache serving several tenants' networks at once."""
        colds = [
            repro.run("set-intersection", tree, _distribution(tree, seed))
            for tree in trees
        ]
        cache = ArtifactCache()
        with use_artifacts(cache):
            # interleave: A, B, ..., A, B, ... — every revisit must hit
            # the cache and still answer exactly like the cold runs.
            for _ in range(2):
                for tree, cold in zip(trees, colds):
                    warm = repro.run(
                        "set-intersection", tree, _distribution(tree, seed)
                    )
                    assert strip_report(warm) == strip_report(cold)
        assert cache.misses <= len(trees)
        assert cache.hits >= len(trees)


class TestProcessBackendIdentity:
    @given(
        tree=tree_topologies(min_nodes=4, max_nodes=7),
        seed=st.integers(0, 2),
    )
    @settings(max_examples=6, deadline=None)
    def test_warm_process_session_matches_cold_sim(self, tree, seed):
        dist = _distribution(tree, seed)
        cold = repro.run("set-intersection", tree, dist, seed=seed)
        with EngineSession(tree) as session:
            warm = session.run(
                "set-intersection", dist, seed=seed, backend="process", num_workers=2
            )
        assert warm.cost == cold.cost
        assert warm.rounds == cold.rounds
        assert warm.meta["result"] == cold.meta["result"]
