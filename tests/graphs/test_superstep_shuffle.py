"""What a hash-to-min superstep hands its group-by shuffle.

In the ``tree`` flavour the local closure is the combiner: the shuffle
input is the vertex table itself, one message per ``(node, vertex)`` in
ascending order, and the round combines only what it received.  The
``uniform-hash`` flavour ships one raw message per directed edge plus
one identity message per row.  If the table ever held a pair twice, the
sender-side combine this shuffle skips would have been needed, so the
order check here fails before an answer could change.
"""

import numpy as np
import pytest

import repro
from repro.graphs import components
from repro.graphs.model import VERTEX_BITS, decode_edges
from repro.queries import aggregate
from repro.queries.tuples import decode_tuples
from repro.topology.builders import two_level

TREE = two_level([4, 3, 2], uplink_bandwidth=[0.5, 2.0, 1.0])


@pytest.fixture(scope="module")
def graph():
    return repro.random_graph_distribution(
        TREE, num_edges=600, policy="zipf", seed=4
    )


def record_shuffles(monkeypatch, graph, protocol):
    """Run ``protocol`` and return, per superstep shuffle, the input
    ``(owners, keys)``, the round's ``pre_aggregate`` argument and the
    keys every ``combine_per_node_key`` call of the round was given."""
    shuffles = []
    shuffle_round = components.hashed_groupby_round
    combine = aggregate.combine_per_node_key

    def recording_combine(owners, keys, values, op):
        shuffles[-1]["combined"].append(np.sort(keys))
        return combine(owners, keys, values, op)

    def recording_round(cluster, hasher, **kwargs):
        owners, payload = cluster.column("R")
        keys, _ = decode_tuples(payload, payload_bits=VERTEX_BITS)
        shuffles.append(
            dict(
                owners=np.array(owners),
                keys=keys,
                pre_aggregate=kwargs["pre_aggregate"],
                combined=[],
            )
        )
        return shuffle_round(cluster, hasher, **kwargs)

    monkeypatch.setattr(components, "hashed_groupby_round", recording_round)
    monkeypatch.setattr(aggregate, "combine_per_node_key", recording_combine)
    report = components.run_components(TREE, graph, protocol=protocol)
    return report, shuffles


def vertex_table(graph):
    """Every node's distinct touched vertices as ``(owners, vertices)``
    rows in node order, and the number of edges."""
    owners, vertices, num_edges = [], [], 0
    for position, node in enumerate(TREE.compute_nodes):
        lo, hi = decode_edges(graph.fragment(node, "E"))
        touched = np.union1d(lo, hi)
        owners.append(np.full(len(touched), position))
        vertices.append(touched)
        num_edges += len(lo)
    return np.concatenate(owners), np.concatenate(vertices), num_edges


def pairs(shuffle):
    return (shuffle["owners"].astype(np.int64) << VERTEX_BITS) | shuffle["keys"]


def test_tree_shuffle_input_is_the_vertex_table(monkeypatch, graph):
    report, shuffles = record_shuffles(monkeypatch, graph, "tree")
    owners, vertices, _ = vertex_table(graph)
    assert report.converged and len(shuffles) == report.meta["num_supersteps"] >= 2
    for shuffle in shuffles:
        # strictly increasing in (owner, key): one row per (node, vertex)
        assert (np.diff(pairs(shuffle)) > 0).all()
        assert np.array_equal(shuffle["owners"], owners)
        assert np.array_equal(shuffle["keys"], vertices)
        # no sender combine: the round's one combine is the owners',
        # over every message shipped
        assert shuffle["pre_aggregate"] is False
        assert len(shuffle["combined"]) == 1
        assert np.array_equal(shuffle["combined"][0], np.sort(vertices))
    # the closure is the combiner, and the step meta says so
    shuffle_steps = [s for s in report.supersteps if s.placement.endswith(" shuffle")]
    assert len(shuffle_steps) == len(shuffles)
    assert all(s.meta["result"]["pre_aggregate"] is True for s in shuffle_steps)


def test_uniform_hash_ships_raw_messages(monkeypatch, graph):
    report, shuffles = record_shuffles(monkeypatch, graph, "uniform-hash")
    _, vertices, num_edges = vertex_table(graph)
    # (v, label(u)) and (u, label(v)) per edge, plus one identity per row
    messages = 2 * num_edges + len(vertices)
    assert report.converged and len(shuffles) == report.meta["num_supersteps"] >= 2
    for shuffle in shuffles:
        assert len(shuffle["keys"]) == messages
        assert len(np.unique(pairs(shuffle))) == len(vertices)
        assert shuffle["pre_aggregate"] is False
        assert len(shuffle["combined"]) == 1
        assert len(shuffle["combined"][0]) == messages
    shuffle_steps = [s for s in report.supersteps if s.placement.endswith(" shuffle")]
    assert len(shuffle_steps) == len(shuffles)
    assert all(s.meta["result"]["pre_aggregate"] is False for s in shuffle_steps)
