"""Tests for the connected-components task and its protocols."""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.errors import ProtocolError
from repro.registry import get_task
from repro.graphs import (
    PlacedGraph,
    components_lower_bound,
    run_components,
)
from repro.graphs.model import encode_edges
from repro.data.distribution import Distribution
from repro.topology.builders import star, two_level
from tests.model.tasks import components

PROTOCOLS = ("tree", "uniform-hash", "gather")


def _relabel(outputs: dict, relabel) -> None:
    """Replace every label ``l`` by ``relabel(vertex, l)``, in place."""
    for labels in outputs.values():
        for vertex, label in labels.items():
            labels[vertex] = relabel(vertex, label)


def _components(outputs: dict) -> dict:
    """``{label: sorted vertices}`` over every node's output."""
    members: dict = {}
    for labels in outputs.values():
        for vertex, label in labels.items():
            members.setdefault(label, []).append(vertex)
    return {label: sorted(vertices) for label, vertices in members.items()}


def _merge_two(outputs: dict) -> None:
    first, second = sorted(_components(outputs))[:2]
    _relabel(outputs, lambda v, label: first if label == second else label)


def _split_one(outputs: dict) -> None:
    _, vertices = min(_components(outputs).items())
    upper = set(vertices[len(vertices) // 2 :])
    _relabel(outputs, lambda v, label: min(upper) if v in upper else label)


def _label_by_max(outputs: dict) -> None:
    root, vertices = min(_components(outputs).items())
    _relabel(outputs, lambda v, label: vertices[-1] if label == root else label)


def _emit_twice(outputs: dict) -> None:
    source, target = [node for node, labels in outputs.items() if labels][:2]
    vertex, label = next(iter(outputs[source].items()))
    outputs[target][vertex] = label


def _drop_one(outputs: dict) -> None:
    labels = next(labels for labels in outputs.values() if labels)
    del labels[next(iter(labels))]


def _add_isolated(outputs: dict) -> None:
    labels = next(labels for labels in outputs.values() if labels)
    extra = 1 + max(max(labels) for labels in outputs.values() if labels)
    labels[extra] = extra


#: corruption of a correct labelling -> the verifier message it must raise
BAD_LABELLINGS = {
    "merged-components": (_merge_two, "wrong labelling"),
    "split-component": (_split_one, "wrong labelling"),
    "label-not-minimum": (_label_by_max, "wrong labelling"),
    "vertex-at-two-nodes": (_emit_twice, "at two nodes"),
    "missing-vertex": (_drop_one, "wrong labelling"),
    "extra-vertex": (_add_isolated, "wrong labelling"),
}


@pytest.fixture
def instance():
    tree = two_level([3, 3], leaf_bandwidth=[4.0, 1.0], uplink_bandwidth=2.0)
    edges = repro.planted_components_graph(3, 20, seed=5)
    graph = PlacedGraph.from_edges(tree, edges, policy="zipf", seed=6)
    return tree, graph


class TestCorrectness:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_outputs_match_union_find(self, instance, protocol):
        tree, graph = instance
        report = run_components(tree, graph, protocol=protocol, seed=7)
        expected = components(graph.edges())
        found = {}
        for step in report.supersteps:
            assert step.cost >= 0
        # re-run at engine level to inspect outputs (verify=True already
        # checked them; this asserts the exact labelling independently)
        from repro.engine import run_with_result

        _, result = run_with_result(
            "connected-components",
            tree,
            graph.distribution,
            protocol=protocol,
            seed=7,
        )
        for labels in result.outputs.values():
            found.update(labels)
        assert found == expected
        assert report.converged

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_single_edge(self, protocol):
        tree = star(3)
        graph = PlacedGraph.from_edges(
            tree, np.array([[4, 2]], dtype=np.int64)
        )
        report = run_components(tree, graph, protocol=protocol)
        assert report.converged
        assert report.num_vertices == 2

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_empty_graph(self, protocol):
        tree = star(3)
        empty = Distribution({node: {"E": []} for node in tree.compute_nodes})
        report = run_components(tree, empty, protocol=protocol)
        assert report.cost == 0
        assert report.converged
        assert report.num_vertices == 0

    def test_seed_reproducible(self, instance):
        tree, graph = instance
        first = run_components(tree, graph, protocol="tree", seed=3)
        second = run_components(tree, graph, protocol="tree", seed=3)
        assert first.cost == second.cost
        assert first.rounds == second.rounds

    def test_convergence_cap_raises(self, instance):
        tree, graph = instance
        with pytest.raises(ProtocolError):
            run_components(
                tree, graph, protocol="tree", seed=3, max_supersteps=1
            )


class TestEngineIntegration:
    def test_registered_with_aliases(self):
        spec = repro.get_task("cc")
        assert spec.name == "connected-components"
        assert spec.default_protocol == "tree"
        names = set(repro.protocols_for("connected-components"))
        assert {"tree", "uniform-hash", "gather"} <= names

    def test_engine_run_reports_bound(self, instance):
        tree, graph = instance
        report = repro.run(
            "connected-components", tree, graph.distribution, seed=1
        )
        assert report.task == "connected-components"
        assert report.lower_bound > 0
        assert report.cost >= report.lower_bound

    def test_verifier_rejects_wrong_labelling(self, instance):
        tree, graph = instance
        from repro.sim.protocol import ProtocolResult
        from repro.sim.ledger import CostLedger

        bogus = ProtocolResult(
            protocol="bogus",
            rounds=1,
            cost=0.0,
            ledger=CostLedger(tree),
            outputs={next(iter(tree.compute_nodes)): {0: 99}},
            meta={"tag": "E"},
        )
        with pytest.raises(ProtocolError):
            get_task("connected-components").verify(tree, graph.distribution, bogus)

    @pytest.mark.parametrize("case", sorted(BAD_LABELLINGS))
    def test_verifier_rejects_bad_labellings(self, instance, case):
        """Each corruption of a real ``tree`` run's labelling is caught."""
        tree, graph = instance
        from repro.engine import run_with_result

        _, result = run_with_result(
            "connected-components",
            tree,
            graph.distribution,
            protocol="tree",
            seed=7,
        )
        get_task("connected-components").verify(tree, graph.distribution, result)
        outputs = {node: dict(labels) for node, labels in result.outputs.items()}
        corrupt, message = BAD_LABELLINGS[case]
        corrupt(outputs)
        with pytest.raises(ProtocolError, match=message):
            get_task("connected-components").verify(
                tree, graph.distribution, replace(result, outputs=outputs)
            )


class TestCostModel:
    def test_tree_beats_uniform_hash(self, instance):
        tree, graph = instance
        aware = run_components(tree, graph, protocol="tree", seed=2)
        base = run_components(tree, graph, protocol="uniform-hash", seed=2)
        assert aware.cost < base.cost

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_cost_at_least_lower_bound(self, instance, protocol):
        tree, graph = instance
        report = run_components(tree, graph, protocol=protocol, seed=2)
        assert report.cost >= report.lower_bound

    def test_supersteps_sum_to_totals(self, instance):
        tree, graph = instance
        report = run_components(tree, graph, protocol="tree", seed=2)
        assert report.cost == pytest.approx(
            sum(step.cost for step in report.supersteps)
        )
        assert report.rounds == sum(step.rounds for step in report.supersteps)
        # the shuffle steps are registered group-by runs
        shuffles = [
            step
            for step in report.supersteps
            if step.task == "groupby-aggregate"
        ]
        assert shuffles and all(s.protocol == "tree-groupby" for s in shuffles)

    def test_lower_bound_counts_spanning_components(self):
        # two components, each entirely on one side of the uplink: the
        # bound must be zero; one spanning component: 1 / (2 w), the
        # full-duplex split halving the forced per-direction crossings.
        tree = two_level([1, 1], uplink_bandwidth=0.5, name="pair")
        nodes = sorted(tree.compute_nodes, key=str)
        local = Distribution(
            {
                nodes[0]: {"E": encode_edges([0], [1])},
                nodes[1]: {"E": encode_edges([5], [6])},
            }
        )
        assert components_lower_bound(tree, local).value == 0.0
        spanning = Distribution(
            {
                nodes[0]: {"E": encode_edges([0], [1])},
                nodes[1]: {"E": encode_edges([1], [2])},
            }
        )
        bound = components_lower_bound(tree, spanning)
        assert bound.value == pytest.approx(1 / (2 * 0.5))
