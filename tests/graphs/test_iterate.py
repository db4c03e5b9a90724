"""Tests for the superstep driver and the group-by degree helpers."""

import pytest

import repro
from repro.graphs import (
    PlacedGraph,
    SuperstepDriver,
    incidence_distribution,
    run_degrees,
)
from repro.obs.tracer import tracing
from repro.topology.builders import two_level
from tests.model.tasks import degrees


@pytest.fixture
def instance():
    tree = two_level([2, 2], leaf_bandwidth=[4.0, 1.0], uplink_bandwidth=2.0)
    edges = repro.gnm_random_graph(40, 90, seed=21)
    graph = PlacedGraph.from_edges(tree, edges, policy="zipf", seed=22)
    return tree, graph


class TestSuperstepDriver:
    def test_absorbed_cost_equals_inner_cost(self, instance):
        tree, graph = instance
        driver = SuperstepDriver(tree)
        dist = incidence_distribution(graph)
        result = driver.protocol_step(
            "groupby-aggregate",
            dist,
            label="step 1",
            protocol="tree",
            seed=1,
            op="count",
            payload_bits=20,
        )
        assert driver.total_cost == pytest.approx(result.cost)
        assert driver.num_rounds == result.rounds
        # round boundaries preserved: per-round costs match too
        for i in range(result.rounds):
            assert driver.ledger.round_cost(i) == pytest.approx(
                result.ledger.round_cost(i)
            )

    def test_steps_accumulate_in_order(self, instance):
        tree, graph = instance
        driver = SuperstepDriver(tree)
        dist = incidence_distribution(graph)
        driver.protocol_step(
            "groupby-aggregate", dist, label="first", protocol="tree",
            op="count", payload_bits=20,
        )
        computes = driver.cluster.compute_order
        with driver.cluster_round(
            task="demo", protocol="raw", label="second", input_size=3
        ) as ctx:
            ctx.exchange_runs([0], [1], [3], [1, 2, 3], tag="demo.recv")
        labels = [step.placement for step in driver.steps]
        assert labels == ["first", "second"]
        assert driver.steps[1].input_size == 3
        assert driver.steps[1].cost > 0
        assert driver.num_rounds == 2
        received = driver.cluster.take(computes[1], "demo.recv")
        assert received.tolist() == [1, 2, 3]

    def test_input_size_is_the_row_and_the_span_elements(self, instance):
        tree, _ = instance
        driver = SuperstepDriver(tree)
        with tracing() as tracer:
            with driver.cluster_round(
                task="demo", protocol="raw", label="round", input_size=41
            ) as ctx:
                ctx.exchange_runs([0], [1], [1], [7], tag="x")
        assert driver.steps[-1].input_size == 41
        (step,) = [e for e in tracer.events if e.name == "round"]
        assert step.attrs["elements"] == 41

    def test_report_packages_totals(self, instance):
        tree, graph = instance
        driver = SuperstepDriver(tree)
        driver.protocol_step(
            "groupby-aggregate",
            incidence_distribution(graph),
            label="only",
            protocol="tree",
            op="count",
            payload_bits=20,
        )
        report = driver.report(
            task="demo-task",
            protocol="demo",
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
        assert report.cost == pytest.approx(driver.total_cost)
        assert report.num_supersteps == 1
        assert report.converged


class TestDegrees:
    def test_degree_counts_match_reference(self, instance):
        tree, graph = instance
        from repro.engine import run_with_result

        _, result = run_with_result(
            "groupby-aggregate",
            tree,
            incidence_distribution(graph),
            op="count",
            payload_bits=20,
        )
        found = {}
        for groups in result.outputs.values():
            found.update(groups)
        assert found == degrees(graph.edges())

    def test_run_degrees_is_a_groupby_run(self, instance):
        tree, graph = instance
        report = run_degrees(tree, graph, seed=1)
        assert report.task == "groupby-aggregate"
        assert report.cost >= report.lower_bound >= 0
