"""The hash-to-min superstep loop against the Section-2 model.

Whole ``connected-components`` protocols run under the model's auditor,
which checks every round of every superstep — the group-by shuffles and
the label-return multicasts — against the transfer-by-transfer model
(``tests/model/rounds.py``).  The labelling must be the union-find's,
the reported cost the sum of the model's round costs, the bound the
model's formula, and the superstep rows must add up to the run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.data.distribution import Distribution
from repro.engine import run_with_result
from repro.graphs import PlacedGraph
from repro.graphs.model import encode_edges
from repro.context import use
from repro.topology.builders import star, two_level
from repro.topology.tree import TreeTopology
from tests.model import bounds, tasks
from tests.model.rounds import ModelAuditor
from tests.strategies import tree_topologies

FLAVOURS = ("tree", "uniform-hash")
def assert_run_matches_the_model(tree, distribution, protocol, seed=0):
    auditor = ModelAuditor()
    with use(auditor=auditor):
        report, result = run_with_result(
            "connected-components", tree, distribution, protocol=protocol, seed=seed
        )
    labels = {}
    for output in result.outputs.values():
        for vertex, label in output.items():
            assert vertex not in labels, vertex
            labels[vertex] = label
    expected = tasks.components(tasks.graph_edges(distribution.relation("E")))
    assert labels == expected
    assert result.meta["converged"]
    assert result.meta["num_vertices"] == len(expected)
    assert math.isclose(report.cost, sum(auditor.costs))
    assert report.rounds == len(auditor.costs)
    assert math.isclose(
        report.lower_bound, bounds.value(bounds.components(tree, distribution))
    )
    rows = result.meta["supersteps"]
    # Node v's message keys are the vertices v's fragment touches, every
    # superstep: the shuffle's bound is the model's shared-vertex count.
    shared_vertices = bounds.value(bounds.triangles(tree, distribution))
    for row in rows:
        if row["placement"].endswith(" shuffle"):
            assert math.isclose(row["lower_bound"], shared_vertices), row["placement"]
    assert sum(row["rounds"] for row in rows) == report.rounds
    assert math.isclose(sum(row["cost"] for row in rows), report.cost)


def path_edges(n: int) -> np.ndarray:
    return np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)


GRAPHS = {
    "gnm": repro.gnm_random_graph(40, 70, seed=3),
    "path": path_edges(30),
    "planted": repro.planted_components_graph(4, 8, seed=2),
    "empty": np.empty((0, 2), dtype=np.int64),
    "single-edge": np.array([[9, 4]], dtype=np.int64),
}

TREES = {
    "star": star(4),
    "two-level": two_level([3, 2, 4], uplink_bandwidth=[0.5, 2.0, 1.0]),
    "single-compute": TreeTopology.from_undirected(
        {("v1", "r"): 1.0}, ["v1"], name="single-compute"
    ),
    "deep-path": TreeTopology.from_undirected(
        {(f"p{i}", f"p{i + 1}"): (1.0, 0.5, 4.0)[i % 3] for i in range(7)},
        ["p0", "p3", "p7"],
        name="deep-path",
    ),
    "router-only-subtree": TreeTopology.from_undirected(
        {
            ("v1", "core"): 1.0,
            ("v2", "core"): 2.0,
            ("v3", "core"): 1.0,
            ("core", "r2"): 1.0,
            ("r2", "r3"): 4.0,
            ("r2", "r4"): 0.5,
        },
        ["v1", "v2", "v3"],
        name="router-only-subtree",
    ),
}


@pytest.mark.parametrize("protocol", FLAVOURS)
@pytest.mark.parametrize("policy", ["zipf", "uniform"])
@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("tree", TREES)
def test_named_shapes(tree, graph, policy, protocol):
    placed = PlacedGraph.from_edges(TREES[tree], GRAPHS[graph], policy=policy, seed=5)
    assert_run_matches_the_model(TREES[tree], placed.distribution, protocol, seed=1)


@given(data=st.data(), tree=tree_topologies())
@settings(max_examples=40, deadline=None)
def test_random_trees(data, tree):
    seed = data.draw(st.integers(0, 2**16))
    kind = data.draw(st.sampled_from(["gnm", "path", "planted"]))
    if kind == "gnm":
        vertices = data.draw(st.integers(2, 40))
        edges = repro.gnm_random_graph(
            vertices,
            data.draw(st.integers(0, min(60, vertices * (vertices - 1) // 2))),
            seed=seed,
        )
    elif kind == "path":
        # shuffled ids: labels crawl instead of collapsing in one step
        ids = np.random.default_rng(seed).permutation(data.draw(st.integers(2, 25)))
        edges = np.stack([ids[:-1], ids[1:]], axis=1)
    else:
        edges = repro.planted_components_graph(
            data.draw(st.integers(1, 4)), data.draw(st.integers(2, 8)), seed=seed
        )
    placed = PlacedGraph.from_edges(
        tree, edges, policy=data.draw(st.sampled_from(["zipf", "uniform"])), seed=seed
    )
    for protocol in FLAVOURS:
        assert_run_matches_the_model(tree, placed.distribution, protocol, seed=seed % 5)


@pytest.mark.parametrize("protocol", FLAVOURS)
def test_raw_fragments(protocol):
    """Fragments a caller packed by hand: both orientations, an edge held
    twice on one node and again on another, a self-loop, sparse ids."""
    tree = two_level([2, 2], uplink_bandwidth=[1.0, 0.5])
    nodes = sorted(tree.compute_nodes)
    top = (1 << 20) - 1
    distribution = Distribution(
        {
            nodes[0]: {"E": encode_edges([7, 2, 7, top], [2, 7, 2, 5])},
            nodes[1]: {"E": encode_edges([2, 9], [7, 9])},
            nodes[3]: {"E": encode_edges([5, top - 1], [4, top])},
        }
    )
    assert_run_matches_the_model(tree, distribution, protocol)
