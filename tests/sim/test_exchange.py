"""Tests for the bulk exchange primitive and its accounting equivalence.

The contract under test: one :meth:`RoundContext.exchange` call is
observably identical to the equivalent sequence of per-destination
:meth:`RoundContext.send` calls — same per-node storage (content *and*
element order), same ``received_elements``, same per-edge ledger loads —
on any topology, placement, and target assignment.  The production
cluster is compared end to end with the transfer-by-transfer reference
model in ``tests/reference_delivery.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.parallel.oracle import assert_clusters_identical
from repro.sim.cluster import Cluster
from repro.sim.ledger import CostLedger
from repro.topology.builders import star, two_level
from repro.topology.steiner import RoutingIndex

from tests.reference_delivery import ReferenceCluster
from tests.strategies import tree_topologies

BOTH_MODELS = {"production": Cluster, "reference": ReferenceCluster}


@pytest.fixture
def cluster():
    return Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))


class TestExchangeBasics:
    def test_delivers_groups_in_element_order(self, cluster):
        computes = cluster.compute_order  # (v1, v2, v3, v4, v5)
        with cluster.round() as ctx:
            ctx.exchange(
                "v1", [1, 0, 1, 2, 1], [10, 20, 30, 40, 50], tag="x"
            )
        assert cluster.local(computes[0], "x").tolist() == [20]
        assert cluster.local(computes[1], "x").tolist() == [10, 30, 50]
        assert cluster.local(computes[2], "x").tolist() == [40]

    def test_charges_paths_like_sends(self):
        a = Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))
        b = Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))
        with a.round() as ctx:
            ctx.exchange("v1", [2, 2, 4], [7, 8, 9], tag="x")
        with b.round() as ctx:
            ctx.send("v1", b.compute_order[2], [7, 8], tag="x")
            ctx.send("v1", b.compute_order[4], [9], tag="x")
        assert a.ledger.round_loads(0) == b.ledger.round_loads(0)

    def test_custom_node_list(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange(
                "v1", [0, 1, 0], [1, 2, 3], tag="x", nodes=["v5", "v3"]
            )
        assert cluster.local("v5", "x").tolist() == [1, 3]
        assert cluster.local("v3", "x").tolist() == [2]

    def test_self_targets_cost_nothing(self, cluster):
        index = cluster.compute_order.index("v1")
        with cluster.round() as ctx:
            ctx.exchange("v1", [index, index], [1, 2], tag="x")
        assert cluster.local("v1", "x").tolist() == [1, 2]
        assert cluster.ledger.round_loads(0) == {}
        assert cluster.received_elements("v1") == 0

    def test_empty_payload_is_free(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange("v1", [], [], tag="x")
        assert cluster.ledger.round_loads(0) == {}

    def test_aliased_nodes_collapse_to_one_delivery(self):
        """An explicit node list aliasing one node under two indices
        delivers once, in original element order, in production and in
        the reference model (the duplicate-alias regression: a send per
        target *index* reorders to [10, 12, 11, 13])."""
        results = {}
        for model, build in BOTH_MODELS.items():
            cluster = build(
                two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
            )
            with cluster.round() as ctx:
                ctx.exchange(
                    "v1",
                    [0, 1, 0, 1],
                    [10, 11, 12, 13],
                    tag="x",
                    nodes=["v3", "v3"],
                )
            results[model] = (
                cluster.local("v3", "x").tolist(),
                cluster.ledger.round_loads(0),
                cluster.received_elements("v3"),
            )
        assert results["production"][0] == [10, 11, 12, 13]
        assert results["production"] == results["reference"]

    def test_send_and_exchange_interleave_in_call_order(self):
        """Mixed send/exchange traffic to one (dst, tag) lands in
        registration order in production and in the reference model
        (code-review regression)."""
        results = {}
        for model, build in BOTH_MODELS.items():
            cluster = build(
                two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
            )
            dst = cluster.compute_order[1]
            with cluster.round() as ctx:
                ctx.send("v1", dst, [100, 101], tag="x")
                ctx.exchange("v3", [1, 1], [200, 201], tag="x")
                ctx.send("v4", dst, [300], tag="x")
            results[model] = cluster.local(dst, "x").tolist()
        assert results["production"] == [100, 101, 200, 201, 300]
        assert results["production"] == results["reference"]

    def test_multiple_tags_one_round(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange("v1", [1, 2], [1, 2], tag="a")
            ctx.exchange("v2", [1, 2], [3, 4], tag="b")
        assert cluster.local(cluster.compute_order[1], "a").tolist() == [1]
        assert cluster.local(cluster.compute_order[1], "b").tolist() == [3]


class TestExchangeValidation:
    def test_router_source_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.exchange("core", [0], [1], tag="x")

    def test_unknown_source_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="unknown"):
            with cluster.round() as ctx:
                ctx.exchange("ghost", [0], [1], tag="x")

    def test_router_in_node_list_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.exchange("v1", [0], [1], tag="x", nodes=["core"])

    def test_unused_router_in_node_list_tolerated(self, cluster):
        # validation covers the destinations actually targeted, like
        # the equivalent send sequence would
        with cluster.round() as ctx:
            ctx.exchange("v1", [0, 0], [1, 2], tag="x", nodes=["v2", "core"])
        assert cluster.local("v2", "x").tolist() == [1, 2]

    def test_length_mismatch_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="one target index"):
            with cluster.round() as ctx:
                ctx.exchange("v1", [0, 1], [1], tag="x")

    def test_out_of_range_target_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="target indices"):
            with cluster.round() as ctx:
                ctx.exchange("v1", [99], [1], tag="x")

    def test_negative_target_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="target indices"):
            with cluster.round() as ctx:
                ctx.exchange("v1", [-1], [1], tag="x")

    def test_float_targets_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="integer"):
            with cluster.round() as ctx:
                ctx.exchange("v1", [0.5], [1], tag="x")

    def test_two_dimensional_targets_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="one-dimensional"):
            with cluster.round() as ctx:
                ctx.exchange("v1", [[0]], [[1]], tag="x")

    def test_zero_length_float_array_targets_rejected(self, cluster):
        """The empty-payload early return must not skip dtype checks:
        an explicit float array is a caller bug whether or not it
        carries elements (empty-payload validation regression)."""
        with pytest.raises(ProtocolError, match="integer"):
            with cluster.round() as ctx:
                ctx.exchange("v1", np.array([], dtype=np.float64), [], tag="x")

    def test_zero_length_integer_array_targets_accepted(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange("v1", np.empty(0, dtype=np.int64), [], tag="x")
        assert cluster.ledger.round_loads(0) == {}

    def test_zero_length_two_dimensional_targets_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="one-dimensional"):
            with cluster.round() as ctx:
                ctx.exchange(
                    "v1", np.empty((0, 2), dtype=np.int64), [], tag="x"
                )


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

    def test_scatter_from_router_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.scatter("w1", [("v1", [1])], tag="x")

    def test_put_on_router_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="compute"):
            cluster.put("core", "R", [1])

    def test_load_with_router_data_rejected(self, cluster):
        from repro.errors import DistributionError

        with pytest.raises(DistributionError, match="non-compute"):
            cluster.load(Distribution({"core": {"R": [1]}}))


def _random_exchange_plan(draw, tree):
    """A registration-ordered mix of exchange and send ops per node.

    Roughly a third of the exchange entries target an explicit node
    list drawn *with replacement* from the compute nodes, so one node
    may be aliased under several target indices — the duplicate-alias
    regression the equivalence property must cover.
    """
    computes = sorted(tree.compute_nodes, key=str)
    plan = []
    for node in computes:
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.integers(0, 2)) == 0:
                node_list = [
                    draw(st.sampled_from(computes))
                    for _ in range(draw(st.integers(1, 6)))
                ]
            else:
                node_list = list(computes)
            count = draw(st.integers(0, 12))
            targets = [
                draw(st.integers(0, len(node_list) - 1)) for _ in range(count)
            ]
            values = [draw(st.integers(-50, 50)) for _ in range(count)]
            tag = draw(st.sampled_from(["recv", "other"]))
            kind = draw(st.sampled_from(["exchange", "send"]))
            if kind == "send":
                # one direct send, interleaved with the exchanges, to
                # pin down ordering when both hit the same (dst, tag)
                targets = targets[:1] * len(values)
            plan.append((kind, node, node_list, targets, values, tag))
    return computes, plan


@st.composite
def exchange_instances(draw):
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    computes, plan = _random_exchange_plan(draw, tree)
    return tree, computes, plan


def _snapshot(cluster, computes, tags=("recv", "other")):
    storage = {
        (v, tag): cluster.local(v, tag).tolist()
        for v in computes
        for tag in tags
    }
    received = {v: cluster.received_elements(v) for v in computes}
    loads = [
        cluster.ledger.round_loads(i)
        for i in range(cluster.ledger.num_rounds)
    ]
    return storage, received, loads


class TestExchangeEquivalenceProperty:
    @given(exchange_instances())
    @settings(max_examples=60, deadline=None)
    def test_exchange_matches_per_destination_sends(self, instance):
        """The contract: identical storage, received counts, and
        per-edge loads between one exchange call, the equivalent send
        sequence, and the reference model, on random topologies."""
        tree, computes, plan = instance

        def replay(cluster, expand_exchange):
            with cluster.round() as ctx:
                for kind, node, node_list, targets, values, tag in plan:
                    if kind == "send" and targets:
                        ctx.send(node, node_list[targets[0]], values, tag=tag)
                    elif kind == "send":
                        pass  # empty send plan entry
                    elif expand_exchange:
                        # the contract: per destination *node* (aliased
                        # indices collapse), one send carrying that
                        # node's elements in original order
                        grouped: dict = {}
                        for index, value in zip(targets, values):
                            grouped.setdefault(node_list[index], []).append(
                                value
                            )
                        for dst, chunk in grouped.items():
                            ctx.send(node, dst, chunk, tag=tag)
                    else:
                        ctx.exchange(
                            node, targets, values, tag=tag, nodes=node_list
                        )

        bulk = Cluster(tree)
        replay(bulk, expand_exchange=False)

        sends = Cluster(tree)
        replay(sends, expand_exchange=True)

        reference = ReferenceCluster(tree)
        replay(reference, expand_exchange=False)

        assert _snapshot(bulk, computes) == _snapshot(sends, computes)
        assert_clusters_identical(
            bulk, reference, a_name="production", b_name="reference"
        )

    @given(exchange_instances())
    @settings(max_examples=40, deadline=None)
    def test_routing_index_matches_path_walks(self, instance):
        """The vectorized tree-flow charger equals per-pair path walks."""
        tree, computes, plan = instance
        routing = RoutingIndex(tree)
        pairs = [
            (src, node_list[t])
            for _kind, src, node_list, targets, _values, _tag in plan
            for t in targets
        ]
        if not pairs:
            return
        expected: dict = {}
        for src, dst in pairs:
            for edge in tree.path_edges(src, dst):
                expected[edge] = expected.get(edge, 0) + 1
        src_ids = np.asarray([routing.index_of[s] for s, _ in pairs])
        dst_ids = np.asarray([routing.index_of[d] for _, d in pairs])
        counts = np.ones(len(pairs), dtype=np.int64)
        # the kernel returns the ledger's slot array: compare what the
        # ledger presents of it
        ledger = CostLedger(tree)
        ledger.open_round()
        ledger.add_link_loads(routing.unicast_loads(src_ids, dst_ids, counts))
        assert ledger.round_loads(0) == expected


class TestOneDeliveryPath:
    def test_exchange_mode_kwarg_is_gone_not_ignored(self):
        with pytest.raises(TypeError, match="exchange_mode"):
            Cluster(star(3), exchange_mode="bulk")
