"""Tests for the superstep driver and the group-by degree helpers."""

import pytest

import repro
from repro.graphs import (
    PlacedGraph,
    SuperstepDriver,
    incidence_distribution,
    run_degrees,
)
from repro.engine import run_with_result
from repro.obs.tracer import tracing
from repro.queries.aggregate import groupby_hasher, hashed_groupby_round
from repro.topology.builders import two_level
from tests.model.tasks import degrees


@pytest.fixture
def instance():
    tree = two_level([2, 2], leaf_bandwidth=[4.0, 1.0], uplink_bandwidth=2.0)
    edges = repro.gnm_random_graph(40, 90, seed=21)
    graph = PlacedGraph.from_edges(tree, edges, policy="zipf", seed=22)
    return tree, graph


def shuffle_step(driver, dist, label, protocol="tree", seed=0):
    """One degree-count group-by round as a step of ``driver``: the
    registered ``protocol``'s hash and kernel, on the driver's cluster."""
    cluster = driver.cluster
    computes = cluster.compute_order
    cluster.load(dist)
    with driver.step(
        task="groupby-aggregate",
        protocol=protocol,
        label=label,
        phase="protocol",
        input_size=dist.total(),
        lower_bound=1.5,
    ):
        return hashed_groupby_round(
            cluster,
            groupby_hasher(protocol, computes, dist.sizes_over(computes, "R"), seed),
            recv_tag="aggregate.recv",
            op="count",
            payload_bits=20,
            pre_aggregate=True,
        )


class TestSuperstepDriver:
    @pytest.mark.parametrize("protocol", ["tree", "uniform-hash"])
    def test_a_step_is_the_registered_protocols_round(self, instance, protocol):
        tree, graph = instance
        driver = SuperstepDriver(tree)
        dist = incidence_distribution(graph)
        owned = shuffle_step(driver, dist, "step 1", protocol, seed=1)
        _, result = run_with_result(
            "groupby-aggregate", tree, dist, protocol=protocol, seed=1,
            op="count", payload_bits=20,
        )
        assert driver.ledger.num_rounds == result.rounds == 1
        assert driver.ledger.round_loads(0) == result.ledger.round_loads(0)
        assert driver.ledger.total_cost() == result.cost
        assert dict(owned.items()) == dict(result.outputs.items())
        (row,) = driver.steps
        assert (row.placement, row.rounds, row.cost, row.lower_bound) == (
            "step 1", 1, result.cost, 1.5
        )

    def test_steps_accumulate_in_order(self, instance):
        tree, graph = instance
        driver = SuperstepDriver(tree)
        shuffle_step(driver, incidence_distribution(graph), "first")
        computes = driver.cluster.compute_order
        # the shuffle consumed its input and what it received
        for tag in ("R", "aggregate.recv"):
            assert len(driver.cluster.column(tag)[1]) == 0
        with driver.cluster_round(
            task="demo", protocol="raw", label="second", input_size=3
        ) as ctx:
            ctx.exchange_runs([0], [1], [3], [1, 2, 3], tag="demo.recv")
        labels = [step.placement for step in driver.steps]
        assert labels == ["first", "second"]
        assert driver.steps[1].input_size == 3
        assert driver.steps[1].cost > 0
        assert driver.steps[1].meta == {"driver_round": 1}
        assert driver.ledger.num_rounds == 2
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

    def test_a_failed_step_records_no_row(self, instance):
        tree, graph = instance
        driver = SuperstepDriver(tree)
        shuffle_step(driver, incidence_distribution(graph), "kept")
        with tracing() as tracer, pytest.raises(RuntimeError):
            with driver.step(
                task="demo", protocol="raw", label="broken", phase="protocol",
                input_size=5,
            ):
                raise RuntimeError("step body failed")
        assert [step.placement for step in driver.steps] == ["kept"]
        (span,) = [e for e in tracer.events if e.name == "broken"]
        assert "error" in span.attrs and "elements" not in span.attrs


class TestDegrees:
    def test_degree_counts_match_reference(self, instance):
        tree, graph = instance
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
