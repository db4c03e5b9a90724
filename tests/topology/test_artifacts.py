"""Tests for the shared topology-artifact layer (repro.topology.artifacts)."""

import numpy as np
import pytest

from repro.context import current
from repro.data.generators import random_distribution
from repro.errors import ProtocolError
from repro.obs.metrics import collecting
from repro.sim.cluster import Cluster
from repro.topology.artifacts import (
    ArtifactCache,
    TopologyArtifacts,
    resolve_artifacts,
    topology_fingerprint,
    use_artifacts,
)
from repro.topology.builders import star, two_level


def _tree(name=None, uplink=2.0):
    return two_level([3, 3], uplink_bandwidth=uplink, name=name)


class TestFingerprint:
    def test_structurally_equal_trees_share_fingerprint(self):
        assert topology_fingerprint(_tree("a")) == topology_fingerprint(
            _tree("b")
        )

    def test_name_is_excluded(self):
        tree = _tree("first build")
        renamed = _tree("second build")
        assert tree.name != renamed.name
        assert topology_fingerprint(tree) == topology_fingerprint(renamed)

    def test_bandwidth_changes_fingerprint(self):
        assert topology_fingerprint(_tree(uplink=2.0)) != topology_fingerprint(
            _tree(uplink=4.0)
        )

    def test_different_structure_changes_fingerprint(self):
        assert topology_fingerprint(_tree()) != topology_fingerprint(
            star(6)
        )


class TestTopologyArtifacts:
    def test_compute_order_is_canonical(self):
        tree = _tree()
        artifacts = TopologyArtifacts(tree)
        cluster = Cluster(tree, artifacts=artifacts)
        assert artifacts.compute_order == cluster.compute_order

    def test_rank_lookup_matches_block_assignment(self):
        tree = _tree()
        artifacts = TopologyArtifacts(tree)
        routing = artifacts.oracle.routing_index
        for num_workers in (1, 2, 4):
            table = artifacts.rank_lookup(routing, num_workers)
            computes = artifacts.compute_order
            for index, node in enumerate(computes):
                expected = (index * num_workers) // len(computes)
                assert table[routing.index_of[node]] == expected
            # routers stay unassigned
            assert (table == -1).sum() == routing.num_nodes - len(computes)
            # cached per rank count: same array object on repeat
            assert artifacts.rank_lookup(routing, num_workers) is table


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Every ``topology_fingerprint`` call the artifact layer makes."""
    import repro.topology.artifacts as artifacts_module

    calls = []

    def counted(tree):
        calls.append(tree)
        return topology_fingerprint(tree)

    monkeypatch.setattr(artifacts_module, "topology_fingerprint", counted)
    return calls


class TestFingerprintOncePerTree:
    def test_one_shot_run_fingerprints_its_tree_once(self, fingerprint_calls):
        import repro

        tree = _tree()
        distribution = random_distribution(tree, r_size=40, s_size=40, seed=1)
        repro.run("set-intersection", tree, distribution)
        assert fingerprint_calls == [tree]

    def test_cache_miss_hands_its_digest_to_the_artifacts(self, fingerprint_calls):
        tree = _tree()
        artifacts = ArtifactCache().get(tree)
        assert fingerprint_calls == [tree]
        assert artifacts.fingerprint == topology_fingerprint(tree)

    def test_artifacts_outside_a_cache_fingerprint_themselves(
        self, fingerprint_calls
    ):
        tree = _tree()
        assert TopologyArtifacts(tree).fingerprint == topology_fingerprint(tree)
        assert fingerprint_calls == [tree]


class TestArtifactCache:
    def test_identity_hit_skips_fingerprinting(self):
        cache = ArtifactCache()
        tree = _tree()
        first = cache.get(tree)
        assert cache.get(tree) is first
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_structural_hit_across_rebuilt_trees(self):
        cache = ArtifactCache()
        first = cache.get(_tree("a"))
        second = cache.get(_tree("b"))
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_bounds_entries(self):
        cache = ArtifactCache(max_entries=2)
        trees = [_tree(uplink=bw) for bw in (1.0, 2.0, 4.0)]
        for tree in trees:
            cache.get(tree)
        assert len(cache) == 2
        # the first topology was evicted: re-getting rebuilds (a miss)
        cache.get(_tree(uplink=1.0))
        assert cache.misses == 4

    def test_counters_recorded_on_installed_registry(self):
        cache = ArtifactCache()
        tree = _tree()
        with collecting() as registry:
            cache.get(tree)
            cache.get(tree)
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["repro_artifact_cache_misses_total"][""] == 1
        assert counters["repro_artifact_cache_hits_total"][""] == 1


class TestRunScope:
    def test_runs_inside_use_artifacts_share_the_installed_cache(self):
        import repro

        cache = ArtifactCache()
        tree = _tree()
        distribution = random_distribution(tree, r_size=40, s_size=40, seed=1)
        with use_artifacts(cache):
            repro.run("set-intersection", tree, distribution)
            repro.run("set-intersection", tree, distribution)
            assert current().artifacts is cache
        assert cache.misses == 1 and cache.hits >= 1
        assert current().artifacts is None

    def test_a_run_outside_leaves_no_cache_installed(self):
        import repro

        tree = _tree()
        distribution = random_distribution(tree, r_size=40, s_size=40, seed=1)
        repro.run("set-intersection", tree, distribution)
        assert current().artifacts is None

    def test_resolve_prefers_installed_cache(self):
        cache = ArtifactCache()
        tree = _tree()
        with use_artifacts(cache):
            assert resolve_artifacts(tree) is cache.get(tree)
        # cold path: a private build, not cached anywhere
        fresh = resolve_artifacts(tree)
        assert fresh is not cache.get(tree)


class TestClusterIntegration:
    def test_explicit_artifacts_are_used(self):
        tree = _tree()
        artifacts = TopologyArtifacts(tree)
        cluster = Cluster(tree, artifacts=artifacts)
        assert cluster.artifacts is artifacts
        assert cluster.oracle is artifacts.oracle

    def test_structurally_equal_artifacts_accepted(self):
        artifacts = TopologyArtifacts(_tree("a"))
        cluster = Cluster(_tree("b"), artifacts=artifacts)
        assert cluster.artifacts is artifacts

    def test_mismatched_artifacts_rejected(self):
        artifacts = TopologyArtifacts(_tree(uplink=2.0))
        with pytest.raises(ProtocolError):
            Cluster(_tree(uplink=4.0), artifacts=artifacts)

    def test_shared_artifacts_do_not_change_ledger(self):
        tree = _tree()
        dist = random_distribution(
            tree, r_size=300, s_size=300, policy="zipf", seed=3
        )
        from repro.core.intersection import tree_intersect

        fresh = tree_intersect(tree, dist, seed=1)
        cache = ArtifactCache()
        with use_artifacts(cache):
            warm_first = tree_intersect(tree, dist, seed=1)
            warm_again = tree_intersect(tree, dist, seed=1)
        assert warm_first.cost == fresh.cost
        assert warm_again.cost == fresh.cost
        assert set(warm_first.outputs) == set(fresh.outputs)
        for node, values in fresh.outputs.items():
            assert np.array_equal(warm_first.outputs[node], values)
            assert np.array_equal(warm_again.outputs[node], values)
        assert cache.hits >= 1
