"""What a hash-to-min run hands its group-by shuffle, and how often.

In the ``tree`` flavour the local closure is the combiner: the shuffle
input is the vertex table itself, one message per ``(node, vertex)`` in
ascending order, and what the nodes hold as ``R`` is what ships.  The
``uniform-hash`` flavour ships one raw message per directed edge plus
one identity message per row.  If the table ever held a pair twice, a
sender-side combine would have been needed, so the order check here
fails before an answer could change.

Every superstep ships the same keys from the same holders, and every
return leg the labels of the same groups to the same subscribers, so a
run lays out its shuffle and its return leg once each
(:meth:`~repro.sim.cluster.Cluster.lay_out`, where every layout is built)
and ships every superstep along them.  A superstep whose arrivals
differ from what its layout says is refused rather than reduced along a
stale grouping or written into the wrong table rows.
"""

import numpy as np
import pytest

import repro
from repro.errors import ProtocolError
from repro.graphs import components
from repro.graphs.model import VERTEX_BITS, decode_edges
from repro.queries.tuples import decode_tuples
from repro.sim.cluster import Cluster
from repro.topology.builders import two_level

TREE = two_level([4, 3, 2], uplink_bandwidth=[0.5, 2.0, 1.0])
FLAVOURS = ("tree", "uniform-hash")


@pytest.fixture(scope="module")
def graph():
    return repro.random_graph_distribution(
        TREE, num_edges=600, policy="zipf", seed=4
    )


def record_run(monkeypatch, graph, protocol):
    """Run ``protocol`` and return its report and what it did: every
    superstep shuffle's input ``(owners, keys)`` and shipped payload,
    and the tag of every layout the run built."""
    calls = dict(shuffles=[], layouts=[])
    round_half = components.shuffle_round
    lay_out = Cluster.lay_out

    def recording_lay_out(cluster, *args, tag, **kwargs):
        calls["layouts"].append(tag)
        return lay_out(cluster, *args, tag=tag, **kwargs)

    def recording_round(cluster, layout, payload, **kwargs):
        owners, held = cluster.column("R")
        keys, _ = decode_tuples(held, payload_bits=VERTEX_BITS)
        calls["shuffles"].append(
            dict(
                owners=np.array(owners),
                keys=keys,
                ships_what_is_held=np.array_equal(payload, held),
            )
        )
        return round_half(cluster, layout, payload, **kwargs)

    monkeypatch.setattr(Cluster, "lay_out", recording_lay_out)
    monkeypatch.setattr(components, "shuffle_round", recording_round)
    report = components.run_components(TREE, graph, protocol=protocol)
    return report, calls


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


def shuffle_steps(report):
    return [s for s in report.supersteps if s.placement.endswith(" shuffle")]


def test_tree_shuffle_input_is_the_vertex_table(monkeypatch, graph):
    report, calls = record_run(monkeypatch, graph, "tree")
    shuffles = calls["shuffles"]
    owners, vertices, _ = vertex_table(graph)
    assert report.converged and len(shuffles) == report.meta["num_supersteps"] >= 4
    for shuffle in shuffles:
        # strictly increasing in (owner, key): one row per (node, vertex)
        assert (np.diff(pairs(shuffle)) > 0).all()
        assert np.array_equal(shuffle["owners"], owners)
        assert np.array_equal(shuffle["keys"], vertices)
        # no sender combine: what the nodes hold as R is what ships
        assert shuffle["ships_what_is_held"]
    # the closure is the combiner, and the step meta says so
    assert len(shuffle_steps(report)) == len(shuffles)
    assert all(s.meta["result"]["pre_aggregate"] is True for s in shuffle_steps(report))


def test_uniform_hash_ships_raw_messages(monkeypatch, graph):
    report, calls = record_run(monkeypatch, graph, "uniform-hash")
    shuffles = calls["shuffles"]
    _, vertices, num_edges = vertex_table(graph)
    # (v, label(u)) and (u, label(v)) per edge, plus one identity per row
    messages = 2 * num_edges + len(vertices)
    assert report.converged and len(shuffles) == report.meta["num_supersteps"] >= 4
    for shuffle in shuffles:
        assert len(shuffle["keys"]) == messages
        assert len(np.unique(pairs(shuffle))) == len(vertices)
        assert shuffle["ships_what_is_held"]
    assert len(shuffle_steps(report)) == len(shuffles)
    assert all(s.meta["result"]["pre_aggregate"] is False for s in shuffle_steps(report))


@pytest.mark.parametrize("protocol", FLAVOURS)
def test_a_run_lays_out_its_shuffle_and_its_return_leg_once(
    monkeypatch, graph, protocol
):
    report, calls = record_run(monkeypatch, graph, protocol)
    steps = report.meta["num_supersteps"]
    assert steps >= 4 and len(calls["shuffles"]) == steps
    # one layout per leg and run, not one per superstep
    assert calls["layouts"] == ["aggregate.recv", "cc.labels.recv"]
    keys = calls["shuffles"][0]["keys"]
    assert all(np.array_equal(keys, s["keys"]) for s in calls["shuffles"])


@pytest.mark.parametrize("protocol", FLAVOURS)
def test_arrivals_unlike_the_first_superstep_are_refused(monkeypatch, graph, protocol):
    round_half = components.shuffle_round
    rounds = []

    def permuting_round(cluster, layout, payload, **kwargs):
        owners, received = round_half(cluster, layout, payload, **kwargs)
        rounds.append(len(received))
        if len(rounds) == 2:
            # the second superstep's arrivals, each owner's reversed
            received = received[np.lexsort((-np.arange(len(received)), owners))]
        return owners, received

    monkeypatch.setattr(components, "shuffle_round", permuting_round)
    with pytest.raises(ProtocolError, match="delivered other keys"):
        components.run_components(TREE, graph, protocol=protocol)
    assert len(rounds) == 2


@pytest.mark.parametrize("forgery", ("permute", "drop"))
@pytest.mark.parametrize("protocol", FLAVOURS)
def test_a_forged_label_delivery_is_refused(monkeypatch, graph, protocol, forgery):
    take = Cluster.take_column
    forged = []

    def forging_take(cluster, tag):
        owners, received = take(cluster, tag)
        if tag == "cc.labels.recv" and not forged:
            forged.append(tag)
            vertices, _ = decode_tuples(received, payload_bits=VERTEX_BITS)
            if forgery == "drop":
                return owners[1:], received[1:]
            # swap the first label with the first one for another vertex
            other = int(np.flatnonzero(vertices != vertices[0])[0])
            received = received.copy()
            received[[0, other]] = received[[other, 0]]
        return owners, received

    monkeypatch.setattr(Cluster, "take_column", forging_take)
    with pytest.raises(ProtocolError, match="delivered other labels"):
        components.run_components(TREE, graph, protocol=protocol)
    assert forged
