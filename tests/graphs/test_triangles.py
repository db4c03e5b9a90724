"""Tests for the triangle-count task compiled through the planner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ProtocolError
from repro.graphs import (
    PlacedGraph,
    run_triangles,
    triangle_catalog,
    triangle_query,
    triangles_lower_bound,
)
from repro.graphs.model import canonical_edges, encode_edges
from repro.graphs.triangles import _triangle_count
from repro.data.distribution import Distribution
from repro.engine import run_with_result
from repro.topology.builders import star, two_level
from tests.model.tasks import triangle_count

PROTOCOLS = ("optimized", "uniform-hash", "gather")


@pytest.fixture
def instance():
    tree = two_level([3, 3], leaf_bandwidth=[4.0, 1.0], uplink_bandwidth=2.0)
    edges = repro.gnm_random_graph(60, 240, seed=11)
    graph = PlacedGraph.from_edges(tree, edges, policy="proportional", seed=12)
    return tree, graph


class TestCorrectness:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_count_matches_the_model(self, instance, protocol):
        tree, graph = instance
        report = run_triangles(tree, graph, protocol=protocol, seed=13)
        expected = triangle_count(graph.edges())
        assert expected > 0  # the instance is dense enough to be interesting
        assert report.meta["num_triangles"] == expected

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_triangle_free_graph(self, protocol):
        tree = star(3)
        chain = np.stack(
            [np.arange(0, 10), np.arange(1, 11)], axis=1
        ).astype(np.int64)
        graph = PlacedGraph.from_edges(tree, chain)
        report = run_triangles(tree, graph, protocol=protocol)
        assert report.meta["num_triangles"] == 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_empty_graph(self, protocol):
        tree = star(3)
        empty = Distribution({node: {"E": []} for node in tree.compute_nodes})
        report = run_triangles(tree, empty, protocol=protocol)
        assert report.cost == 0
        assert report.meta["num_triangles"] == 0

    @pytest.mark.parametrize("num_edges", [0, 120])
    def test_outputs_follow_the_compute_order(self, num_edges):
        tree = two_level([3, 3, 3])
        graph = PlacedGraph.from_edges(
            tree, repro.gnm_random_graph(40, num_edges, seed=5), seed=6
        )
        _, result = run_with_result(
            "triangle-count", tree, graph.distribution, seed=7
        )
        assert tuple(result.outputs) == tree.compute_nodes

    def test_orientation_of_placed_fragments_is_irrelevant(self):
        # fragments may store (hi, lo); the catalog canonicalizes locally
        tree = star(2)
        nodes = sorted(tree.compute_nodes, key=str)
        dist = Distribution(
            {
                nodes[0]: {"E": encode_edges([2, 1], [0, 0])},
                nodes[1]: {"E": encode_edges([2], [1])},
            }
        )
        report = run_triangles(tree, dist, protocol="gather")
        assert report.meta["num_triangles"] == 1


class TestCompilation:
    def test_two_equijoin_stages(self, instance):
        tree, graph = instance
        report = run_triangles(tree, graph, protocol="uniform-hash", seed=13)
        joins = [
            step for step in report.supersteps if step.task == "equijoin"
        ]
        assert len(joins) == 2
        assert all(step.protocol == "uniform-hash-equijoin" for step in joins)

    def test_catalog_schemas_share_columns(self, instance):
        tree, graph = instance
        catalog = triangle_catalog(tree, graph.distribution)
        assert tuple(catalog["E1"].schema.columns) == ("a", "b")
        assert tuple(catalog["E2"].schema.columns) == ("b", "c")
        assert tuple(catalog["E3"].schema.columns) == ("a", "c")
        assert (
            catalog["E1"].total_rows
            == catalog["E2"].total_rows
            == graph.num_edges
        )

    def test_query_is_the_cyclic_join(self):
        query = triangle_query()
        described = query.describe()
        assert "E1" in described and "E2" in described and "E3" in described


class TestEngineIntegration:
    def test_registered_with_default(self):
        spec = repro.get_task("triangles")
        assert spec.name == "triangle-count"
        assert spec.default_protocol == "optimized"
        names = set(repro.protocols_for("triangle-count"))
        assert names == {"optimized", "uniform-hash", "gather"}

    def test_engine_run_reports_bound(self, instance):
        tree, graph = instance
        report = repro.run("triangle-count", tree, graph.distribution, seed=3)
        assert report.lower_bound > 0
        assert report.cost >= report.lower_bound

    def test_verifier_rejects_duplicate_edges(self):
        tree = star(2)
        nodes = sorted(tree.compute_nodes, key=str)
        dup = Distribution(
            {
                nodes[0]: {"E": encode_edges([0], [1])},
                nodes[1]: {"E": encode_edges([1], [0])},
            }
        )
        with pytest.raises(ProtocolError):
            repro.run("triangle-count", tree, dup, protocol="gather")


class TestCostModel:
    def test_optimized_never_worse_than_pinned_flavours(self, instance):
        tree, graph = instance
        reports = {
            protocol: run_triangles(tree, graph, protocol=protocol, seed=4)
            for protocol in PROTOCOLS
        }
        # optimized picks per-stage protocols by estimate; it must at
        # least match the uniform-hash baseline on this skewed topology
        assert reports["optimized"].cost <= reports["uniform-hash"].cost

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_cost_at_least_lower_bound(self, instance, protocol):
        tree, graph = instance
        report = run_triangles(tree, graph, protocol=protocol, seed=4)
        assert report.cost >= report.lower_bound

    def test_bound_counts_shared_vertices(self):
        # one vertex (1) has edges on both sides of the 0.5-uplink; the
        # bound is |shared| / (2 w) = 1 / (2 * 0.5)
        tree = two_level([1, 1], uplink_bandwidth=0.5, name="pair")
        nodes = sorted(tree.compute_nodes, key=str)
        dist = Distribution(
            {
                nodes[0]: {"E": encode_edges([0], [1])},
                nodes[1]: {"E": encode_edges([1], [2])},
            }
        )
        bound = triangles_lower_bound(tree, dist)
        assert bound.value == pytest.approx(1 / (2 * 0.5))


@given(
    num_vertices=st.integers(2, 30),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_the_verifiers_count_is_the_models(num_vertices, density, seed):
    num_edges = int(density * num_vertices * (num_vertices - 1) // 2)
    edges = repro.gnm_random_graph(num_vertices, num_edges, seed=seed)
    assert _triangle_count(canonical_edges(edges)) == triangle_count(edges)
