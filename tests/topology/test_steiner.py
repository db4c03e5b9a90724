"""Unit tests for the path/Steiner oracle (multicast deduplication)."""

from repro.topology.builders import two_level
from repro.topology.steiner import PathOracle


class TestPathOracle:
    def setup_method(self):
        self.tree = two_level([2, 3])
        self.oracle = PathOracle(self.tree)

    def test_path_matches_tree(self):
        assert self.oracle.path_edges("v1", "v3") == self.tree.path_edges(
            "v1", "v3"
        )

    def test_path_to_self_empty(self):
        assert self.oracle.path_edges("v2", "v2") == ()

    def test_steiner_single_destination_is_path(self):
        assert set(self.oracle.steiner_edges("v1", ["v4"])) == set(
            self.tree.path_edges("v1", "v4")
        )

    def test_steiner_dedups_shared_prefix(self):
        # v1 -> {v3, v4}: the shared segment v1..w2 must appear once.
        edges = self.oracle.steiner_edges("v1", ["v3", "v4"])
        assert edges.count(("v1", "w1")) == 1
        assert edges.count(("w1", "core")) == 1
        assert ("w2", "v3") in edges
        assert ("w2", "v4") in edges
        assert len(edges) == 5

    def test_steiner_covers_union_of_paths(self):
        destinations = ["v2", "v3", "v5"]
        edges = set(self.oracle.steiner_edges("v1", destinations))
        union = set()
        for destination in destinations:
            union |= set(self.tree.path_edges("v1", destination))
        assert edges == union

    def test_steiner_to_self_only(self):
        assert self.oracle.steiner_edges("v1", ["v1"]) == ()

    def test_destination_order_irrelevant(self):
        forward = self.oracle.steiner_edges("v1", ["v3", "v4"])
        backward = self.oracle.steiner_edges("v1", ["v4", "v3"])
        assert set(forward) == set(backward)

    def test_edges_directed_away_from_source(self):
        for (u, v) in self.oracle.steiner_edges("v5", ["v1", "v2"]):
            # every edge points from the v5 side toward the destinations
            assert self.tree.path_nodes("v5", v).index(v) > self.tree.path_nodes(
                "v5", u
            ).index(u)
