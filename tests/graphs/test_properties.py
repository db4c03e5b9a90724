"""Property tests: graph generators and GraphRunReport round-trips."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import (
    gnm_random_graph,
    planted_components_graph,
    powerlaw_graph,
)
from repro.report import GraphRunReport, RunReport
from tests.model.tasks import components, degrees


# --------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(
    num_vertices=st.integers(2, 120),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_gnm_degree_sums_match_edge_count(num_vertices, density, seed):
    max_edges = num_vertices * (num_vertices - 1) // 2
    num_edges = int(density * max_edges)
    edges = gnm_random_graph(num_vertices, num_edges, seed=seed)
    assert edges.shape == (num_edges, 2)
    # simple graph: canonical orientation, no duplicates, no loops
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len(np.unique(edges, axis=0)) == num_edges
    assert sum(degrees(edges).values()) == 2 * num_edges


@settings(max_examples=25, deadline=None)
@given(
    num_vertices=st.integers(10, 150),
    seed=st.integers(0, 2**16),
    exponent=st.floats(0.0, 2.5),
)
def test_powerlaw_degree_sums_and_simplicity(num_vertices, seed, exponent):
    num_edges = num_vertices  # sparse enough to be drawable at any skew
    edges = powerlaw_graph(
        num_vertices, num_edges, exponent=exponent, seed=seed
    )
    assert edges.shape == (num_edges, 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len(np.unique(edges, axis=0)) == num_edges
    assert sum(degrees(edges).values()) == 2 * num_edges


@settings(max_examples=25, deadline=None)
@given(
    num_components=st.integers(1, 6),
    component_size=st.integers(2, 25),
    seed=st.integers(0, 2**16),
)
def test_planted_components_are_recovered(num_components, component_size, seed):
    edges = planted_components_graph(
        num_components, component_size, seed=seed
    )
    labels = components(edges)
    # every vertex of every block is present (spanning trees connect them)
    assert len(labels) == num_components * component_size
    # each block is exactly one component, labelled by its first vertex
    for index in range(num_components):
        offset = index * component_size
        for vertex in range(offset, offset + component_size):
            assert labels[vertex] == offset


# --------------------------------------------------------------------- #
# GraphRunReport JSON round-trip
# --------------------------------------------------------------------- #


def _step_reports():
    return st.builds(
        RunReport,
        task=st.sampled_from(["groupby-aggregate", "equijoin"]),
        protocol=st.sampled_from(["tree-groupby", "tree-equijoin"]),
        topology=st.just("hyp-tree"),
        placement=st.sampled_from(
            ["superstep 1 shuffle", "superstep 1 return"]
        ),
        input_size=st.integers(0, 10_000),
        rounds=st.integers(0, 4),
        cost=st.floats(0, 1e6, allow_nan=False),
        lower_bound=st.floats(0, 1e5, allow_nan=False),
        meta=st.just({}),
    )


@settings(max_examples=40, deadline=None)
@given(
    supersteps=st.lists(_step_reports(), max_size=5),
    num_vertices=st.integers(0, 2**20),
    num_edges=st.integers(0, 2**20),
    lower_bound=st.floats(0, 1e6, allow_nan=False),
    converged=st.booleans(),
)
def test_graph_report_json_round_trip(
    supersteps, num_vertices, num_edges, lower_bound, converged
):
    import json

    report = GraphRunReport(
        task="connected-components",
        protocol="tree-components",
        topology="hyp-tree",
        placement="zipf",
        num_vertices=num_vertices,
        num_edges=num_edges,
        supersteps=tuple(supersteps),
        lower_bound=lower_bound,
        converged=converged,
        meta={"num_supersteps": len(supersteps)},
    )
    payload = json.loads(json.dumps(report.to_dict()))
    rebuilt = GraphRunReport.from_dict(payload)
    assert rebuilt.task == report.task
    assert rebuilt.protocol == report.protocol
    assert rebuilt.num_vertices == report.num_vertices
    assert rebuilt.num_edges == report.num_edges
    assert rebuilt.converged == report.converged
    assert rebuilt.cost == report.cost
    assert rebuilt.rounds == report.rounds
    assert rebuilt.lower_bound == report.lower_bound
    assert len(rebuilt.supersteps) == len(report.supersteps)
    for old, new in zip(report.supersteps, rebuilt.supersteps):
        assert new.task == old.task
        assert new.cost == old.cost
        assert new.rounds == old.rounds
