"""Unit tests for the cluster simulator: storage, rounds, routing."""

import numpy as np
import pytest

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.sim.cluster import Cluster, RoundContext
from repro.sim.ledger import BITS_PER_ELEMENT
from repro.topology.builders import star, two_level
from tests.cluster_storage import put


@pytest.fixture
def cluster():
    return Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))


class TestStorage:
    def test_local_reads_appended_fragments(self, cluster):
        put(cluster, "v1", "R", [1])
        put(cluster, "v1", "R", [2])
        assert cluster.local("v1", "R").tolist() == [1, 2]

    def test_take_removes(self, cluster):
        put(cluster, "v1", "R", [1, 2])
        taken = cluster.take("v1", "R")
        assert taken.tolist() == [1, 2]
        assert len(cluster.local("v1", "R")) == 0

    def test_local_size(self, cluster):
        put(cluster, "v1", "R", [1, 2])
        put(cluster, "v1", "S", [3])
        assert cluster.local_size("v1", "R") == 2
        assert cluster.local_size("v1") == 3

    def test_load_distribution(self):
        tree = star(3)
        dist = Distribution({"v1": {"R": [1, 2]}, "v2": {"R": [3]}})
        cluster = Cluster(tree, dist)
        assert cluster.local("v1", "R").tolist() == [1, 2]
        assert cluster.local_size("v3") == 0


class TestRounds:
    """Nodes by compute-order index: v1..v5 are 0..4."""

    def test_a_run_delivers_and_charges_its_path(self, cluster):
        put(cluster, "v1", "R", [5, 6, 7])
        with cluster.round() as ctx:
            ctx.exchange_runs([0], [2], [3], cluster.local("v1", "R"), tag="recv")
        assert cluster.local("v3", "recv").tolist() == [5, 6, 7]
        loads = cluster.ledger.round_loads(0)
        assert loads[("v1", "w1")] == 3
        assert loads[("w1", "core")] == 3
        assert loads[("core", "w2")] == 3
        assert loads[("w2", "v3")] == 3

    def test_round_cost_uses_bottleneck(self, cluster):
        # leaf links have bandwidth 2, uplinks bandwidth 1.
        with cluster.round() as ctx:
            ctx.exchange_runs([0], [2], [4], np.arange(4), tag="recv")
        assert cluster.ledger.round_cost(0) == 4.0  # 4 elements / bw 1

    def test_multicast_charges_steiner_edges_once(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast_runs(
                [0], [[2, 3, 4]], [10], np.arange(10), tag="m"
            )
        loads = cluster.ledger.round_loads(0)
        assert loads[("w1", "core")] == 10  # shared prefix charged once
        assert loads[("w2", "v3")] == 10
        assert loads[("w2", "v4")] == 10

    def test_multicast_delivers_copies(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast_runs([0], [[2, 3]], [2], [1, 2], tag="m")
        assert cluster.local("v3", "m").tolist() == [1, 2]
        assert cluster.local("v4", "m").tolist() == [1, 2]

    def test_self_send_costs_nothing(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_runs([0], [0], [3], [1, 2, 3], tag="self")
        assert cluster.ledger.round_cost(0) == 0.0
        assert cluster.local("v1", "self").tolist() == [1, 2, 3]

    def test_empty_payload_is_free(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_runs([0], [2], [0], [], tag="x")
        assert cluster.ledger.round_loads(0) == {}
        assert len(cluster.local("v3", "x")) == 0

    def test_nested_rounds_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="in progress"):
            with cluster.round():
                with cluster.round():
                    pass

    def test_deliveries_wait_for_round_end(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_runs([0], [1], [1], [1], tag="late")
            assert len(cluster.local("v2", "late")) == 0
        assert cluster.local("v2", "late").tolist() == [1]

    def test_failed_round_not_accounted(self, cluster):
        with pytest.raises(RuntimeError):
            with cluster.round() as ctx:
                ctx.exchange_runs([0], [1], [1], [1], tag="x")
                raise RuntimeError("protocol bug")
        assert cluster.ledger.num_rounds == 0
        assert len(cluster.local("v2", "x")) == 0

    def test_received_elements_excludes_self(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_runs([0, 0], [0, 1], [2, 1], [1, 2, 3], tag="a")
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
            ctx.exchange_runs([0], [1], [3], [1, 2, 3], tag="a")
            ctx.exchange_multicast_runs([2], [[1, 2, 3]], [2], [4, 5], tag="b")
        assert cluster._received_elements.dtype == np.int64
        assert cluster._received_elements.sum() == 3 + 2 + 2
        assert cluster.received_elements("v2") == 5
        assert cluster.received_elements("v4") == 2
        assert type(cluster.received_elements("v2")) is int
        # routers receive nothing; a node the tree never had reads as 0
        assert cluster.received_elements("core") == 0
        assert cluster.received_elements("nowhere") == 0
        # a later round adds to the same vector; a self-copy is no arrival
        with cluster.round() as ctx:
            ctx.exchange_runs([3, 1], [0, 1], [4, 1], [6, 7, 8, 9, 1], tag="c")
        assert cluster.received_elements("v1") == 4
        assert cluster.received_elements("v2") == 5


class TestRoundApi:
    """Two calls register a round, one per kind of Section-2 transfer,
    and each stream keeps one record shape."""

    def test_the_registration_methods_are_the_two_calls_and_their_layout(self):
        # both calls lay out their runs and ship them by exchange_layout
        public = {name for name in vars(RoundContext) if not name.startswith("_")}
        assert public == {"exchange_runs", "exchange_multicast_runs", "exchange_layout"}
        for removed in (
            "send",
            "multicast",
            "exchange_column",
            "exchange",
            "exchange_multicast",
            "exchange_multicast_column",
            "scatter",
        ):
            assert not hasattr(RoundContext, removed)

    def test_self_only_destination_set_is_stored_free(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast_runs([0], [[0]], [2], [7, 8], tag="x")
        assert cluster.local("v1", "x").tolist() == [7, 8]
        assert cluster.ledger.round_loads(0) == {}
        assert cluster.received_elements("v1") == 0

    def test_source_inside_larger_destination_set(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast_runs([0], [[0, 1]], [2], [7, 8], tag="x")
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
            ctx.exchange_multicast_runs([0], [[1, 3]], [0], [], tag="x")
            assert not ctx._multicasts
        assert cluster.ledger.round_loads(0) == {}


class TestRouterSourceRegression:
    """Data can never reside at a router.  The round calls name nodes by
    compute-order index, so no transfer can start or end at one; loading
    is the other way in."""

    def test_load_with_router_data_rejected(self, cluster):
        from repro.errors import DistributionError

        with pytest.raises(DistributionError, match="non-compute"):
            cluster.load(Distribution({"core": {"R": [1]}}))


def test_the_constructor_builds_a_loaded_simulator():
    dist = Distribution({"v1": {"R": [1, 2]}, "v2": {"R": [3]}})
    cluster = Cluster(star(3), dist)
    assert cluster.local("v1", "R").tolist() == [1, 2]


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
                ctx.exchange_runs([0, 1], [2, 0], [6, 8], [1] * 6 + [2] * 8, tag="a")
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

    def test_bytes_by_tag_are_one_word_per_element(self, cluster):
        from repro.obs.tracer import tracing

        with tracing() as tracer:
            with cluster.round() as ctx:
                ctx.exchange_runs([0], [2], [3], [1, 1, 1], tag="a")
                ctx.exchange_runs([1], [0], [5], [2] * 5, tag="b")
        (attrs,) = self._round_attrs(tracer)
        assert attrs["elements_by_tag"] == {"a": 3, "b": 5}
        assert BITS_PER_ELEMENT == 64
        assert attrs["bytes_by_tag"] == {"a": 24, "b": 40}
