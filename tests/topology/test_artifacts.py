"""Tests for the shared topology-artifact layer (repro.topology.artifacts)."""

import numpy as np
import pytest

from repro.context import current
from repro.data.generators import random_distribution
from repro.obs.metrics import collecting
from repro.sim.cluster import Cluster
from repro.topology import artifacts as artifacts_module
from repro.topology.artifacts import (
    ArtifactCache,
    TopologyArtifacts,
    resolve_artifacts,
    use_artifacts,
)
from repro.topology.builders import star, two_level
from repro.topology.tree import TreeTopology


def _tree(name=None, uplink=2.0):
    return two_level([3, 3], uplink_bandwidth=uplink, name=name)


class TestFingerprint:
    def test_structurally_equal_trees_share_fingerprint(self):
        assert _tree("a").fingerprint == _tree("b").fingerprint

    def test_name_is_excluded(self):
        tree = _tree("first build")
        renamed = _tree("second build")
        assert tree.name != renamed.name
        assert tree.fingerprint == renamed.fingerprint

    def test_bandwidth_changes_fingerprint(self):
        assert _tree(uplink=2.0).fingerprint != _tree(uplink=4.0).fingerprint

    def test_different_structure_changes_fingerprint(self):
        assert _tree().fingerprint != star(6).fingerprint


class TestTopologyArtifacts:
    def test_compute_order_is_canonical(self):
        tree = _tree()
        assert Cluster(tree).compute_order is tree.compute_nodes
        assert not hasattr(TopologyArtifacts(tree), "compute_position")


@pytest.fixture
def digest_walks(monkeypatch):
    """Every walk of a tree that computes its structural digest."""
    memo = TreeTopology.__dict__["fingerprint"]
    walk = memo.func
    calls = []

    def counted(tree):
        calls.append(tree)
        return walk(tree)

    monkeypatch.setattr(memo, "func", counted)
    return calls


class TestFingerprintOncePerTree:
    def test_one_shot_run_fingerprints_its_tree_once(self, digest_walks):
        import repro

        tree = _tree()
        distribution = random_distribution(tree, r_size=40, s_size=40, seed=1)
        repro.run("set-intersection", tree, distribution)
        assert digest_walks == [tree]

    def test_cache_lookups_walk_the_tree_once(self, digest_walks):
        tree = _tree()
        cache = ArtifactCache()
        artifacts = cache.get(tree)
        assert cache.get(tree) is artifacts
        assert digest_walks == [tree]
        assert artifacts.fingerprint == tree.fingerprint

    def test_artifacts_outside_a_cache_fingerprint_themselves(
        self, digest_walks
    ):
        tree = _tree()
        assert TopologyArtifacts(tree).fingerprint == tree.fingerprint
        assert digest_walks == [tree]


class TestArtifactCache:
    def test_repeat_lookup_of_one_tree_hits(self):
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

    @pytest.mark.parametrize("bound", [2, None], ids=["patched", "default"])
    def test_lru_eviction_bounds_entries(self, monkeypatch, bound):
        if bound is None:
            bound = artifacts_module.ARTIFACT_CACHE_ENTRIES
        else:
            monkeypatch.setattr(artifacts_module, "ARTIFACT_CACHE_ENTRIES", bound)
        cache = ArtifactCache()
        for index in range(bound + 1):
            cache.get(_tree(uplink=1.0 + index))
        assert len(cache) == bound
        assert cache.misses == bound + 1
        # the first topology was evicted: re-getting rebuilds (a miss)
        cache.get(_tree(uplink=1.0))
        assert cache.misses == bound + 2

    def test_a_hit_refreshes_recency(self, monkeypatch):
        # A, B, A, C with room for two: the second A made B the least
        # recently used, so C evicts B and a rebuilt A still hits
        monkeypatch.setattr(artifacts_module, "ARTIFACT_CACHE_ENTRIES", 2)
        cache = ArtifactCache()
        a, b, c = (_tree(uplink=bw) for bw in (1.0, 2.0, 4.0))
        for tree in (a, b, a, c):
            cache.get(tree)
        assert cache.get(_tree(uplink=1.0)) is cache.get(a)
        assert (cache.hits, cache.misses) == (3, 3)
        cache.get(_tree(uplink=2.0))
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
    def test_installed_artifacts_are_used(self):
        tree = _tree()
        with use_artifacts(ArtifactCache()) as cache:
            artifacts = cache.get(tree)
            cluster = Cluster(tree)
        assert cluster.oracle is artifacts.oracle

    def test_structurally_equal_artifacts_are_shared(self):
        with use_artifacts(ArtifactCache()) as cache:
            artifacts = cache.get(_tree("a"))
            cluster = Cluster(_tree("b"))
        assert cluster.oracle is artifacts.oracle

    def test_mismatched_trees_get_their_own_artifacts(self):
        with use_artifacts(ArtifactCache()) as cache:
            other = cache.get(_tree(uplink=2.0))
            tree = _tree(uplink=4.0)
            cluster = Cluster(tree)
        assert cluster.oracle is not other.oracle
        assert cache.misses == 2
        assert cluster.oracle is cache.get(tree).oracle

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
