"""Tests for the graph data model: edge packing and PlacedGraph."""

import numpy as np
import pytest

import repro
from repro.errors import DistributionError
from repro.graphs import (
    MAX_VERTICES,
    PlacedGraph,
    canonical_edges,
    decode_edges,
    encode_edges,
)
from repro.topology.builders import star, two_level
from tests.model.tasks import degrees


class TestEdgeEncoding:
    def test_round_trip(self):
        src = np.array([0, 5, MAX_VERTICES - 1], dtype=np.int64)
        dst = np.array([1, 7, 0], dtype=np.int64)
        back_src, back_dst = decode_edges(encode_edges(src, dst))
        assert np.array_equal(back_src, src)
        assert np.array_equal(back_dst, dst)

    def test_one_element_per_edge(self):
        packed = encode_edges([1, 2, 3], [4, 5, 6])
        assert packed.shape == (3,)
        assert packed.dtype == np.int64

    def test_rejects_out_of_range(self):
        with pytest.raises(DistributionError):
            encode_edges([MAX_VERTICES], [0])
        with pytest.raises(DistributionError):
            encode_edges([-1], [0])

    def test_rejects_misaligned(self):
        with pytest.raises(DistributionError):
            encode_edges([1, 2], [3])


class TestCanonicalEdges:
    def test_orients_and_dedupes(self):
        edges = np.array([[2, 1], [1, 2], [3, 4]], dtype=np.int64)
        canonical = canonical_edges(edges)
        assert canonical.tolist() == [[1, 2], [3, 4]]

    def test_rejects_self_loops(self):
        with pytest.raises(DistributionError):
            canonical_edges(np.array([[1, 1]], dtype=np.int64))

    def test_empty(self):
        assert canonical_edges(np.empty((0, 2), np.int64)).shape == (0, 2)


class TestPlacedGraph:
    def test_from_edges_places_every_edge_once(self):
        tree = two_level([2, 2], uplink_bandwidth=2.0)
        edges = repro.gnm_random_graph(40, 80, seed=1)
        graph = PlacedGraph.from_edges(tree, edges, policy="zipf", seed=2)
        assert graph.num_edges == 80
        assert sorted(map(tuple, graph.edges().tolist())) == sorted(
            map(tuple, edges.tolist())
        )

    def test_num_vertices_inferred_and_validated(self):
        tree = star(3)
        graph = PlacedGraph.from_edges(
            tree, np.array([[0, 7], [3, 5]], dtype=np.int64)
        )
        assert graph.num_vertices == 8
        with pytest.raises(DistributionError):
            PlacedGraph.from_edges(
                tree,
                np.array([[0, 7]], dtype=np.int64),
                num_vertices=4,
            )

    def test_degrees_match_the_model(self):
        tree = star(4)
        edges = repro.gnm_random_graph(30, 60, seed=3)
        graph = PlacedGraph.from_edges(tree, edges, policy="uniform", seed=4)
        expected = degrees(edges)
        assert graph.degrees().tolist() == [
            expected[v] for v in range(graph.num_vertices)
        ]
        assert graph.degrees().sum() == 2 * graph.num_edges

    def test_vertices_are_sorted_endpoints(self):
        tree = star(3)
        graph = PlacedGraph.from_edges(
            tree, np.array([[9, 2], [2, 5]], dtype=np.int64)
        )
        assert graph.vertices().tolist() == [2, 5, 9]

    def test_placement_policies_spread_differently(self):
        tree = star(4)
        edges = repro.gnm_random_graph(50, 100, seed=5)
        uniform = PlacedGraph.from_edges(tree, edges, policy="uniform")
        heavy = PlacedGraph.from_edges(tree, edges, policy="single-heavy")
        uniform_sizes = sorted(
            uniform.distribution.sizes("E").values(), reverse=True
        )
        heavy_sizes = sorted(
            heavy.distribution.sizes("E").values(), reverse=True
        )
        assert heavy_sizes[0] > uniform_sizes[0]

    def test_describe_mentions_sizes(self):
        tree = star(3)
        graph = PlacedGraph.from_edges(
            tree, np.array([[0, 1]], dtype=np.int64)
        )
        text = graph.describe()
        assert "n=2" in text and "m=1" in text
