"""The relation-at-a-time calls: ``column``, ``exchange_column`` and
``exchange_multicast_column``.

The contract under test: one ``exchange_column`` is observably identical
to one ``exchange`` per run of equal sources, one
``exchange_multicast_column`` to one ``multicast`` per group id — same
storage bytes, received counts and per-edge loads — which the
transfer-by-transfer reference model in ``tests/reference_delivery.py``
spells out.  Validation rejects what the per-node calls reject.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.parallel.oracle import assert_clusters_identical
from repro.sim.cluster import Cluster
from repro.topology.builders import two_level

from tests.reference_delivery import ReferenceCluster
from tests.strategies import tree_topologies


@pytest.fixture
def cluster():
    return Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))


class TestColumn:
    def test_concatenates_fragments_in_compute_order(self, cluster):
        order = cluster.compute_order
        cluster.put(order[3], "R", [30, 31])
        cluster.put(order[0], "R", [1])
        cluster.put(order[0], "S", [99])
        owners, values = cluster.column("R")
        assert owners.tolist() == [0, 3, 3]
        assert values.tolist() == [1, 30, 31]
        assert owners.dtype == np.int16 and values.dtype == np.int64

    def test_absent_tag_is_an_empty_column(self, cluster):
        owners, values = cluster.column("nothing")
        assert len(owners) == len(values) == 0
        assert values.dtype == np.int64


class TestExchangeColumnDelivery:
    def test_delivers_in_column_order_per_destination(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_column(
                [0, 0, 2, 2, 4], [1, 3, 1, 1, 3], [10, 11, 12, 13, 14], tag="x"
            )
        assert cluster.local(order[1], "x").tolist() == [10, 12, 13]
        assert cluster.local(order[3], "x").tolist() == [11, 14]
        assert cluster.received_elements(order[1]) == 3

    def test_sources_need_not_ascend(self, cluster):
        """A run is a run in column order (wTS scatters in traversal
        order, not compute order); each keeps its place."""
        order = cluster.compute_order
        reference = ReferenceCluster(cluster.tree)
        for model in (cluster, reference):
            with model.round() as ctx:
                ctx.exchange_column(
                    [3, 3, 0, 3], [1, 2, 1, 1], [7, 8, 9, 10], tag="x"
                )
        assert cluster.local(order[1], "x").tolist() == [7, 9, 10]
        assert_clusters_identical(cluster, reference)

    def test_empty_payloads_pass_the_checks(self, cluster):
        empty = np.empty(0, np.int64)
        with cluster.round() as ctx:
            ctx.exchange_column(empty, empty, empty, tag="x")
            ctx.exchange_column([], [], [], tag="x")
            ctx.exchange_multicast_column([], [], [], [], tag="x")
            ctx.exchange_multicast_column(
                [0], empty, [{cluster.compute_order[1]}], empty, tag="x"
            )
        assert cluster.ledger.round_loads(0) == {}


class TestExchangeColumnValidation:
    def test_float_sources_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="sources must be an integer"):
            with cluster.round() as ctx:
                ctx.exchange_column([0.5], [1], [1], tag="x")

    def test_float_targets_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="targets must be an integer"):
            with cluster.round() as ctx:
                ctx.exchange_column([0], np.asarray([1.0]), [1], tag="x")

    def test_zero_length_float_index_array_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="integer"):
            with cluster.round() as ctx:
                ctx.exchange_column(np.empty(0, np.float64), [], [], tag="x")

    @pytest.mark.parametrize(
        "sources, targets, values",
        [([0, 1], [1], [5]), ([0], [1, 2], [5]), ([0], [1], [5, 6])],
    )
    def test_length_mismatch_rejected(self, cluster, sources, targets, values):
        with pytest.raises(ProtocolError, match="one source and one target"):
            with cluster.round() as ctx:
                ctx.exchange_column(sources, targets, values, tag="x")

    @pytest.mark.parametrize("index", [-1, 5, 99])
    def test_source_outside_compute_order_rejected(self, cluster, index):
        with pytest.raises(ProtocolError, match="source indices"):
            with cluster.round() as ctx:
                ctx.exchange_column([index], [0], [1], tag="x")

    @pytest.mark.parametrize("index", [-1, 5, 99])
    def test_target_outside_compute_order_rejected(self, cluster, index):
        with pytest.raises(ProtocolError, match="target indices"):
            with cluster.round() as ctx:
                ctx.exchange_column([0], [index], [1], tag="x")

    def test_two_dimensional_payload_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="one-dimensional"):
            with cluster.round() as ctx:
                ctx.exchange_column([0], [1], [[1]], tag="x")

    def test_registration_after_the_round_closed_rejected(self, cluster):
        with cluster.round() as ctx:
            pass
        with pytest.raises(ProtocolError, match="already finalized"):
            ctx.exchange_column([0], [1], [1], tag="x")
        with pytest.raises(ProtocolError, match="already finalized"):
            ctx.exchange_multicast_column(
                [0], [0], [{cluster.compute_order[1]}], [1], tag="x"
            )


class TestExchangeMulticastColumnValidation:
    def test_float_group_sources_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="group sources must be an integer"):
            with cluster.round() as ctx:
                ctx.exchange_multicast_column([0.0], [0], [{"v2"}], [1], tag="x")

    def test_float_group_ids_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="group ids must be an integer"):
            with cluster.round() as ctx:
                ctx.exchange_multicast_column([0], [0.0], [{"v2"}], [1], tag="x")

    def test_one_source_per_set_required(self, cluster):
        with pytest.raises(ProtocolError, match="one source index per set"):
            with cluster.round() as ctx:
                ctx.exchange_multicast_column(
                    [0, 1], [0], [{"v2"}], [1], tag="x"
                )

    def test_one_group_id_per_element_required(self, cluster):
        with pytest.raises(ProtocolError, match="one group id per element"):
            with cluster.round() as ctx:
                ctx.exchange_multicast_column(
                    [0], [0, 0], [{"v2"}], [1], tag="x"
                )

    @pytest.mark.parametrize("index", [-1, 5])
    def test_source_outside_compute_order_rejected(self, cluster, index):
        with pytest.raises(ProtocolError, match="group sources"):
            with cluster.round() as ctx:
                ctx.exchange_multicast_column(
                    [index], [0], [{"v2"}], [1], tag="x"
                )

    def test_group_id_outside_the_sets_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="group ids"):
            with cluster.round() as ctx:
                ctx.exchange_multicast_column([0], [1], [{"v2"}], [1], tag="x")

    def test_empty_destination_set_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="at least one destination"):
            with cluster.round() as ctx:
                ctx.exchange_multicast_column([0], [0], [set()], [1], tag="x")

    def test_router_inside_a_destination_set_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.exchange_multicast_column(
                    [0], [0], [{"v2", "core"}], [1], tag="x"
                )

    def test_unreferenced_bad_set_tolerated(self, cluster):
        # like exchange_multicast: only sets a group id names are checked
        with cluster.round() as ctx:
            ctx.exchange_multicast_column(
                [0, 0], [0], [{"v2"}, {"core"}], [1], tag="x"
            )
        assert cluster.local("v2", "x").tolist() == [1]


class TestExplicitNodeLists:
    def test_node_list_is_copied_at_registration(self, cluster):
        """``exchange(nodes=...)`` snapshots the list once; mutating the
        caller's list before the round closes changes nothing."""
        nodes = ["v2", "v3"]
        with cluster.round() as ctx:
            ctx.exchange("v1", [0, 1], [1, 2], tag="x", nodes=nodes)
            nodes[0] = "v4"
            ctx.exchange("v1", [0, 1], [3, 4], tag="x", nodes=nodes)
        assert cluster.local("v2", "x").tolist() == [1]
        assert cluster.local("v4", "x").tolist() == [3]
        assert cluster.local("v3", "x").tolist() == [2, 4]

    def test_one_shot_iterable_accepted(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange("v1", [1], [5], tag="x", nodes=iter(["v2", "v3"]))
        assert cluster.local("v3", "x").tolist() == [5]


@st.composite
def column_rounds(draw):
    """A random round mixing column registrations with per-node calls."""
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    computes = sorted(tree.compute_nodes, key=str)
    count = len(computes)
    index = st.integers(0, count - 1)
    plan = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["column", "multicast-column", "send"]))
        tag = draw(st.sampled_from(["recv", "other"]))
        size = draw(st.integers(0, 8))
        values = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
        if kind == "column":
            sources = sorted(draw(st.lists(index, min_size=size, max_size=size)))
            if draw(st.booleans()):
                sources.reverse()
            targets = draw(st.lists(index, min_size=size, max_size=size))
            plan.append((kind, tag, sources, targets, values))
        elif kind == "multicast-column":
            num_sets = draw(st.integers(1, 4))
            sets = [
                frozenset(
                    computes[i]
                    for i in draw(st.sets(index, min_size=1, max_size=count))
                )
                for _ in range(num_sets)
            ]
            group_sources = draw(
                st.lists(index, min_size=num_sets, max_size=num_sets)
            )
            group_ids = draw(
                st.lists(
                    st.integers(0, num_sets - 1), min_size=size, max_size=size
                )
            )
            plan.append((kind, tag, group_sources, group_ids, sets, values))
        else:
            plan.append(
                (kind, tag, computes[draw(index)], computes[draw(index)], values)
            )
    return tree, plan


def _replay(cluster, plan):
    with cluster.round() as ctx:
        for kind, tag, *args in plan:
            if kind == "column":
                ctx.exchange_column(*args, tag=tag)
            elif kind == "multicast-column":
                ctx.exchange_multicast_column(*args, tag=tag)
            else:
                ctx.send(*args, tag=tag)
    return cluster


class TestColumnEquivalenceProperty:
    @given(column_rounds())
    @settings(max_examples=80, deadline=None)
    def test_column_calls_match_the_reference_model(self, instance):
        tree, plan = instance
        assert_clusters_identical(
            _replay(Cluster(tree), plan),
            _replay(ReferenceCluster(tree), plan),
            a_name="production",
            b_name="reference",
        )

    @given(column_rounds())
    @settings(max_examples=40, deadline=None)
    def test_column_calls_match_the_per_node_calls(self, instance):
        """The definition, in production code on both sides: one
        ``exchange`` per run of equal sources, one ``exchange_multicast``
        per group."""
        tree, plan = instance
        order = Cluster(tree).compute_order
        expanded = Cluster(tree)
        with expanded.round() as ctx:
            for kind, tag, *args in plan:
                if kind == "column":
                    sources, targets, values = args
                    start = 0
                    for stop in range(1, len(sources) + 1):
                        if stop == len(sources) or sources[stop] != sources[start]:
                            ctx.exchange(
                                order[sources[start]],
                                targets[start:stop],
                                values[start:stop],
                                tag=tag,
                            )
                            start = stop
                elif kind == "multicast-column":
                    group_sources, group_ids, sets, values = args
                    for gid in sorted(set(group_ids)):
                        ctx.exchange_multicast(
                            order[group_sources[gid]],
                            [0] * group_ids.count(gid),
                            [sets[gid]],
                            [v for v, g in zip(values, group_ids) if g == gid],
                            tag=tag,
                        )
                else:
                    ctx.send(*args, tag=tag)
        assert_clusters_identical(
            _replay(Cluster(tree), plan),
            expanded,
            a_name="column",
            b_name="per-node",
        )
