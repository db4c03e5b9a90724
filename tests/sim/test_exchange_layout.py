"""A layout shipped again is the round a fresh registration would be.

``Cluster.lay_out`` fixes a registration's runs; ``exchange_layout``
ships payloads along them with per-run counts of their own, zero counts
included.  Every round shipped that way must equal a fresh
``exchange_runs`` / ``exchange_multicast_runs`` registration of the same
runs and counts: per-round link loads, received counts and store
contents, on both clusters, with every round checked against the
Section-2 model by its auditor.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.context import use
from repro.errors import ProtocolError
from repro.sim.cluster import Cluster
from repro.topology.builders import two_level
from tests.cluster_identity import assert_clusters_identical
from tests.model.rounds import ModelAuditor
from tests.strategies import shaped_trees


@st.composite
def layout_plans(draw):
    """A tree, the runs of one registration (unicast or multicast, CSR
    destination sets with repeats), the counts it is laid out with and
    the counts of every later round, each round shipping once or twice."""
    tree = draw(shaped_trees(max_nodes=8))
    nodes = len(tree.compute_nodes)
    runs = draw(st.integers(0, 10))
    index = st.integers(0, nodes - 1)
    count = st.lists(st.integers(0, 4), min_size=runs, max_size=runs)
    sources = np.array(draw(st.lists(index, min_size=runs, max_size=runs)), np.intp)
    if draw(st.booleans()):
        sets = [draw(st.lists(index, min_size=1, max_size=4)) for _ in range(runs)]
        destinations = (
            np.array(sum(sets, []), np.intp),
            np.cumsum([0, *map(len, sets)]),
        )
    else:
        destinations = np.array(draw(st.lists(index, min_size=runs, max_size=runs)), np.intp)
    laid = np.array(draw(count), np.intp)
    rounds = [
        [None if draw(st.booleans()) else np.array(draw(count), np.intp)
         for _ in range(draw(st.integers(1, 2)))]
        for _ in range(draw(st.integers(1, 3)))
    ]
    return tree, sources, destinations, laid, rounds


def _register(ctx, sources, destinations, counts, payload) -> None:
    if isinstance(destinations, tuple):
        ctx.exchange_multicast_runs(sources, destinations, counts, payload, tag="x")
    else:
        ctx.exchange_runs(sources, destinations, counts, payload, tag="x")


@given(layout_plans())
@settings(max_examples=150, deadline=None)
def test_a_layout_ships_what_a_fresh_registration_would(plan):
    tree, sources, destinations, laid, rounds = plan
    along, fresh = Cluster(tree), Cluster(tree)
    auditor = ModelAuditor()
    values = iter(range(10**6))
    with use(auditor=auditor):
        if isinstance(destinations, tuple):
            members, offsets = destinations
        else:
            members, offsets = destinations, None
        layout = along.lay_out(sources, members, laid, offsets=offsets, tag="x")
        for shipments in rounds:
            with along.round() as ctx:
                payloads = []
                for counts in shipments:
                    shipped = laid if counts is None else counts
                    payload = np.fromiter(values, np.int64, int(shipped.sum()))
                    payloads.append((shipped, payload))
                    ctx.exchange_layout(layout, payload, counts)
            with fresh.round() as ctx:
                for shipped, payload in payloads:
                    _register(ctx, sources, destinations, shipped, payload)
    assert len(auditor.costs) == 2 * len(rounds)
    assert_clusters_identical(along, fresh, a_name="layout", b_name="fresh")


class TestShipments:
    def test_the_counts_must_lay_the_runs_end_to_end(self):
        cluster = Cluster(two_level([2, 3]))
        layout = cluster.lay_out([0, 1], [2, 3], [1, 2], tag="x")
        with pytest.raises(ProtocolError, match="one count per run"):
            with cluster.round() as ctx:
                ctx.exchange_layout(layout, [5], [1])
        with pytest.raises(ProtocolError, match="lays the runs end to end"):
            with cluster.round() as ctx:
                ctx.exchange_layout(layout, [5], [1, 1])
        with pytest.raises(ProtocolError, match="non-negative"):
            with cluster.round() as ctx:
                ctx.exchange_layout(layout, [5], [2, -1])

    def test_a_layout_ships_only_on_its_own_tree(self):
        layout = Cluster(two_level([2, 3])).lay_out([0], [1], [1], tag="x")
        cluster = Cluster(two_level([3, 2]))
        with pytest.raises(ProtocolError, match="another tree"):
            with cluster.round() as ctx:
                ctx.exchange_layout(layout, [5])

    def test_the_delivery_index_reads_the_tag_back(self):
        cluster = Cluster(two_level([2, 3]))
        payload = np.array([10, 11, 12, 13, 14, 15])
        layout = cluster.lay_out(
            [0, 4, 2], [3, 1, 3, 1, 0], [2, 1, 3], offsets=[0, 2, 3, 5], tag="x"
        )
        with cluster.round() as ctx:
            ctx.exchange_layout(layout, payload)
        owners, values = cluster.take_column("x")
        positions, rows = layout.delivery
        assert values.tolist() == payload[positions].tolist()
        assert owners.tolist() == layout.row_destination[rows].tolist()
        members = layout.members[layout.row_member[rows]]
        assert owners.tolist() == members.tolist()
