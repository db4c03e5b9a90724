"""The routing kernels' link sets against the union of tree paths.

A unicast crosses the links of its tree path; a deduplicated multicast
crosses each link of the union of its source-to-destination paths once
(the Section-2 model's walk, ``tests/model/paths.py``).  One element sent
through :class:`RoutingIndex` must load exactly those directed links.
"""

from repro.topology.builders import two_level
from tests.link_loads import multicast_links, unicast_links
from tests.model.paths import path_edges, path_nodes, steiner_links


class TestSteinerLinks:
    def setup_method(self):
        self.tree = two_level([2, 3])

    def test_path_matches_tree(self):
        assert unicast_links(self.tree, "v1", "v3") == dict.fromkeys(
            path_edges(self.tree, "v1", "v3"), 1
        )

    def test_path_to_self_empty(self):
        assert unicast_links(self.tree, "v2", "v2") == {}

    def test_steiner_single_destination_is_path(self):
        assert multicast_links(self.tree, "v1", ["v4"]) == dict.fromkeys(
            path_edges(self.tree, "v1", "v4"), 1
        )

    def test_steiner_dedups_shared_prefix(self):
        # v1 -> {v3, v4}: the shared segment v1..w2 is charged once.
        links = multicast_links(self.tree, "v1", ["v3", "v4"])
        assert links[("v1", "w1")] == 1
        assert links[("w1", "core")] == 1
        assert ("w2", "v3") in links
        assert ("w2", "v4") in links
        assert len(links) == 5
        assert set(links.values()) == {1}

    def test_steiner_covers_union_of_paths(self):
        destinations = ["v2", "v3", "v5"]
        links = multicast_links(self.tree, "v1", destinations)
        assert links == dict.fromkeys(steiner_links(self.tree, "v1", destinations), 1)

    def test_steiner_to_self_only(self):
        assert multicast_links(self.tree, "v1", ["v1"]) == {}

    def test_destination_order_irrelevant(self):
        forward = multicast_links(self.tree, "v1", ["v3", "v4"])
        backward = multicast_links(self.tree, "v1", ["v4", "v3"])
        assert forward == backward

    def test_edges_directed_away_from_source(self):
        for (u, v) in multicast_links(self.tree, "v5", ["v1", "v2"]):
            # every edge points from the v5 side toward the destinations
            path = path_nodes(self.tree, "v5", v)
            assert path.index(v) > path_nodes(self.tree, "v5", u).index(u)
