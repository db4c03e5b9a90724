"""Unit tests for the cluster simulator: storage, rounds, routing."""

import numpy as np
import pytest

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.sim.cluster import Cluster, RoundContext
from repro.topology.builders import star, two_level


@pytest.fixture
def cluster():
    return Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))


class TestStorage:
    def test_put_and_local(self, cluster):
        cluster.put("v1", "R", [1, 2, 3])
        assert cluster.local("v1", "R").tolist() == [1, 2, 3]

    def test_put_appends(self, cluster):
        cluster.put("v1", "R", [1])
        cluster.put("v1", "R", [2])
        assert cluster.local("v1", "R").tolist() == [1, 2]

    def test_put_on_router_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="compute"):
            cluster.put("core", "R", [1])

    def test_take_removes(self, cluster):
        cluster.put("v1", "R", [1, 2])
        taken = cluster.take("v1", "R")
        assert taken.tolist() == [1, 2]
        assert len(cluster.local("v1", "R")) == 0

    def test_local_size(self, cluster):
        cluster.put("v1", "R", [1, 2])
        cluster.put("v1", "S", [3])
        assert cluster.local_size("v1", "R") == 2
        assert cluster.local_size("v1") == 3

    def test_tags_at(self, cluster):
        cluster.put("v2", "X", [1])
        assert cluster.tags_at("v2") == frozenset({"X"})

    def test_load_distribution(self):
        tree = star(3)
        dist = Distribution({"v1": {"R": [1, 2]}, "v2": {"R": [3]}})
        cluster = Cluster(tree, dist)
        assert cluster.local("v1", "R").tolist() == [1, 2]
        assert cluster.local_size("v3") == 0


class TestRounds:
    def test_send_delivers_and_charges_path(self, cluster):
        cluster.put("v1", "R", [5, 6, 7])
        with cluster.round() as ctx:
            ctx.send("v1", "v3", cluster.local("v1", "R"), tag="recv")
        assert cluster.local("v3", "recv").tolist() == [5, 6, 7]
        loads = cluster.ledger.round_loads(0)
        assert loads[("v1", "w1")] == 3
        assert loads[("w1", "core")] == 3
        assert loads[("core", "w2")] == 3
        assert loads[("w2", "v3")] == 3

    def test_round_cost_uses_bottleneck(self, cluster):
        # leaf links have bandwidth 2, uplinks bandwidth 1.
        cluster.put("v1", "R", np.arange(4))
        with cluster.round() as ctx:
            ctx.send("v1", "v3", np.arange(4), tag="recv")
        assert cluster.ledger.round_cost(0) == 4.0  # 4 elements / bw 1

    def test_multicast_charges_steiner_edges_once(self, cluster):
        with cluster.round() as ctx:
            ctx.multicast("v1", ["v3", "v4", "v5"], np.arange(10), tag="m")
        loads = cluster.ledger.round_loads(0)
        assert loads[("w1", "core")] == 10  # shared prefix charged once
        assert loads[("w2", "v3")] == 10
        assert loads[("w2", "v4")] == 10

    def test_multicast_delivers_copies(self, cluster):
        with cluster.round() as ctx:
            ctx.multicast("v1", ["v3", "v4"], [1, 2], tag="m")
        assert cluster.local("v3", "m").tolist() == [1, 2]
        assert cluster.local("v4", "m").tolist() == [1, 2]

    def test_self_send_costs_nothing(self, cluster):
        with cluster.round() as ctx:
            ctx.send("v1", "v1", [1, 2, 3], tag="self")
        assert cluster.ledger.round_cost(0) == 0.0
        assert cluster.local("v1", "self").tolist() == [1, 2, 3]

    def test_empty_payload_is_free(self, cluster):
        with cluster.round() as ctx:
            ctx.send("v1", "v3", [], tag="x")
        assert cluster.ledger.round_loads(0) == {}
        assert len(cluster.local("v3", "x")) == 0

    def test_router_destination_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.send("v1", "core", [1], tag="x")

    def test_unknown_node_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="unknown"):
            with cluster.round() as ctx:
                ctx.send("v1", "ghost", [1], tag="x")

    def test_empty_destination_set_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="destination"):
            with cluster.round() as ctx:
                ctx.multicast("v1", [], [1], tag="x")

    def test_two_dimensional_payload_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="one-dimensional"):
            with cluster.round() as ctx:
                ctx.send("v1", "v2", [[1, 2]], tag="x")

    def test_nested_rounds_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="in progress"):
            with cluster.round():
                with cluster.round():
                    pass

    def test_deliveries_wait_for_round_end(self, cluster):
        with cluster.round() as ctx:
            ctx.send("v1", "v2", [1], tag="late")
            assert len(cluster.local("v2", "late")) == 0
        assert cluster.local("v2", "late").tolist() == [1]

    def test_failed_round_not_accounted(self, cluster):
        with pytest.raises(RuntimeError):
            with cluster.round() as ctx:
                ctx.send("v1", "v2", [1], tag="x")
                raise RuntimeError("protocol bug")
        assert cluster.ledger.num_rounds == 0
        assert len(cluster.local("v2", "x")) == 0

    def test_received_elements_excludes_self(self, cluster):
        with cluster.round() as ctx:
            ctx.send("v1", "v1", [1, 2], tag="a")
            ctx.send("v1", "v2", [3], tag="a")
        assert cluster.received_elements("v1") == 0
        assert cluster.received_elements("v2") == 1

    def test_rounds_executed(self, cluster):
        with cluster.round():
            pass
        with cluster.round():
            pass
        assert cluster.rounds_executed == 2

    def test_received_elements_is_one_vector_with_a_named_view(self, cluster):
        with cluster.round() as ctx:
            ctx.send("v1", "v2", [1, 2, 3], tag="a")
            ctx.multicast("v3", ["v2", "v3", "v4"], [4, 5], tag="b")
        assert cluster._received_elements.dtype == np.int64
        assert cluster._received_elements.sum() == 3 + 2 + 2
        assert cluster.received_elements("v2") == 5
        assert cluster.received_elements("v4") == 2
        assert type(cluster.received_elements("v2")) is int
        # routers receive nothing; a node the tree never had reads as 0
        assert cluster.received_elements("core") == 0
        assert cluster.received_elements("nowhere") == 0
        cluster._add_received("v1", 4)
        assert cluster.received_elements("v1") == 4


class TestRoundApi:
    """Three calls register a round; ``send`` and ``multicast`` are their
    node-named front-ends, and each stream keeps one record shape."""

    def test_the_registration_methods_are_exactly_five(self):
        public = {name for name in vars(RoundContext) if not name.startswith("_")}
        assert public == {
            "send",
            "multicast",
            "exchange_column",
            "exchange_runs",
            "exchange_multicast_column",
        }
        for removed in ("exchange", "exchange_multicast", "scatter"):
            assert not hasattr(RoundContext, removed)

    def test_multicast_records_sorted_member_indices(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.multicast(order[1], [order[4], order[0], order[2]], [5], tag="m")
            ((origins, members, offsets, ids, payload, tag),) = ctx._multicasts
        assert origins.tolist() == [1]
        assert members.tolist() == [0, 2, 4]
        assert offsets.tolist() == [0, 3]
        assert (ids, payload.tolist(), tag) == (None, [5], "m")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("core", "destination 'core' is a router; only compute nodes "
                     "can store data"),
            ("v9", "unknown node 'v9'"),
        ],
    )
    def test_bad_node_inside_a_set_is_named(self, cluster, bad, message):
        with pytest.raises(ProtocolError) as raised:
            with cluster.round() as ctx:
                try:
                    ctx.multicast("v1", {"v2", "v3", bad}, [1], tag="x")
                finally:
                    assert not ctx._multicasts
        assert str(raised.value) == message

    def test_self_only_destination_set_is_stored_free(self, cluster):
        with cluster.round() as ctx:
            ctx.multicast("v1", {"v1"}, [7, 8], tag="x")
        assert cluster.local("v1", "x").tolist() == [7, 8]
        assert cluster.ledger.round_loads(0) == {}
        assert cluster.received_elements("v1") == 0

    def test_source_inside_larger_destination_set(self, cluster):
        with cluster.round() as ctx:
            ctx.multicast("v1", {"v1", "v2"}, [7, 8], tag="x")
        assert cluster.local("v1", "x").tolist() == [7, 8]
        assert cluster.local("v2", "x").tolist() == [7, 8]
        assert cluster.received_elements("v1") == 0
        assert cluster.received_elements("v2") == 2
        # one copy crosses v1 -> core -> v2, charged once per link
        assert all(
            count == 2 for count in cluster.ledger.round_loads(0).values()
        )

    def test_empty_multicast_payload_registers_nothing(self, cluster):
        with cluster.round() as ctx:
            ctx.multicast("v1", {"v2", "v4"}, [], tag="x")
            assert not ctx._multicasts
        assert cluster.ledger.round_loads(0) == {}


class TestRouterSourceRegression:
    """Data can never reside at a router, so no transfer may start there."""

    def test_send_from_router_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.send("core", "v1", [1], tag="x")

    def test_multicast_from_router_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.multicast("core", ["v1", "v2"], [1], tag="x")

    def test_load_with_router_data_rejected(self, cluster):
        from repro.errors import DistributionError

        with pytest.raises(DistributionError, match="non-compute"):
            cluster.load(Distribution({"core": {"R": [1]}}))


def test_exchange_mode_kwarg_is_gone_not_ignored():
    with pytest.raises(TypeError, match="exchange_mode"):
        Cluster(star(3), exchange_mode="bulk")


class TestRoundSpan:
    """The round span names the cost and the edge that sets it."""

    def _round_attrs(self, tracer):
        return [
            event.attrs
            for event in tracer.events
            if event.attrs.get("category") == "round"
        ]

    def test_bottleneck_edge_is_the_argmax_of_the_round_cost(self, cluster):
        from repro.obs.tracer import tracing

        with tracing() as tracer:
            with cluster.round() as ctx:
                # 6 elements over the rack uplink (w=1) and leaf links (w=2)
                ctx.send("v1", "v3", [1] * 6, tag="a")
                ctx.send("v2", "v1", [2] * 8, tag="a")
            with cluster.round():
                pass
        busy, empty = self._round_attrs(tracer)
        edge, cost = cluster.ledger.bottleneck(0)
        assert busy["round_cost"] == cost == 6.0
        assert busy["bottleneck_edge"] == f"{edge[0]}->{edge[1]}"
        assert cluster.ledger.round_loads(0)[edge] == 6
        assert busy["max_edge_load"] == 8
        assert empty["round_cost"] == 0.0
        assert empty["bottleneck_edge"] is None
        assert empty["max_edge_load"] == 0
