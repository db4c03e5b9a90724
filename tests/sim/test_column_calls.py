"""Relations at a time: ``column``, a hash partition (the column cut
into runs by ``runs_by_target``, one ``exchange_runs``) and
``exchange_multicast_column``.

The contract under test: a hash partition is observably identical to
one single-element run per element in column order, one
``exchange_multicast_column`` to one call per group id — same storage
bytes, received counts and per-edge loads — which the
transfer-by-transfer Section-2 model in ``tests/model/rounds.py`` spells
out.  Destination sets are compute-order index arrays, a
``(groups, k)`` matrix or a CSR ``(members, offsets)`` tuple; validation
is span checks, run before anything is registered.  The unicast checks
are ``exchange_runs``'s own (``test_exchange_runs.py``); a hash
partition reaches them through ``runs_by_target``, which itself refuses
columns of two lengths or more than one dimension.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.context import use
from repro.errors import ProtocolError
from repro.obs.audit import auditing
from repro.sim.cluster import Cluster
from repro.sim.ledger import CostLedger
from repro.topology.builders import two_level
from repro.topology.steiner import RoutingIndex
from repro.util.grouping import runs_by_target

from tests.cluster_identity import assert_clusters_identical, assert_matches_model
from tests.cluster_storage import put
from tests.model.paths import path_edges
from tests.model.rounds import ModelAuditor, ModelCluster
from tests.obs.shuffle import hash_partition
from tests.strategies import tree_topologies


@pytest.fixture
def cluster():
    return Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))


class TestColumn:
    def test_concatenates_fragments_in_compute_order(self, cluster):
        order = cluster.compute_order
        put(cluster, order[3], "R", [30, 31])
        put(cluster, order[0], "R", [1])
        put(cluster, order[0], "S", [99])
        owners, values = cluster.column("R")
        assert owners.tolist() == [0, 3, 3]
        assert values.tolist() == [1, 30, 31]
        assert owners.dtype == np.int16 and values.dtype == np.int64

    def test_absent_tag_is_an_empty_column(self, cluster):
        owners, values = cluster.column("nothing")
        assert len(owners) == len(values) == 0
        assert values.dtype == np.int64


class TestHashPartitionDelivery:
    def test_delivers_in_column_order_per_destination(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            hash_partition(
                ctx, [0, 0, 2, 2, 4], [1, 3, 1, 1, 3], [10, 11, 12, 13, 14], tag="x"
            )
        assert cluster.local(order[1], "x").tolist() == [10, 12, 13]
        assert cluster.local(order[3], "x").tolist() == [11, 14]
        assert cluster.received_elements(order[1]) == 3

    def test_sources_need_not_ascend(self, cluster):
        """A run is a run in column order (wTS scatters in traversal
        order, not compute order); each keeps its place."""
        order = cluster.compute_order
        model = ModelCluster(cluster.tree)
        for built in (cluster, model):
            with built.round() as ctx:
                hash_partition(ctx, [3, 3, 0, 3], [1, 2, 1, 1], [7, 8, 9, 10], tag="x")
        assert cluster.local(order[1], "x").tolist() == [7, 9, 10]
        assert_matches_model(cluster, model)

    def test_self_targets_cost_nothing(self, cluster):
        with cluster.round() as ctx:
            hash_partition(ctx, [2, 2], [2, 2], [1, 2], tag="x")
        assert cluster.local(cluster.compute_order[2], "x").tolist() == [1, 2]
        assert cluster.ledger.round_loads(0) == {}
        assert cluster.received_elements(cluster.compute_order[2]) == 0

    def test_runs_and_partitions_interleave_in_call_order(self):
        """Mixed traffic to one (dst, tag) lands in registration order,
        in production and in the model; another tag in the same round is
        its own column."""
        tree = two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
        cluster, model = Cluster(tree), ModelCluster(tree)
        order = cluster.compute_order
        for built in (cluster, model):
            with built.round() as ctx:
                ctx.exchange_runs([0], [1], [2], [100, 101], tag="x")
                hash_partition(ctx, [2, 2, 2], [1, 1, 3], [200, 201, 5], tag="x")
                hash_partition(ctx, [3], [1], [7], tag="y")
                ctx.exchange_runs([3], [1], [1], [300], tag="x")
        assert [cluster.local(order[1], tag).tolist() for tag in ("x", "y")] == [
            [100, 101, 200, 201, 300],
            [7],
        ]
        assert_matches_model(cluster, model)

    def test_empty_payloads_pass_the_checks(self, cluster):
        empty = np.empty(0, np.int64)
        with cluster.round() as ctx:
            hash_partition(ctx, empty, empty, empty, tag="x")
            hash_partition(ctx, [], [], [], tag="x")
            ctx.exchange_multicast_column(
                [], [], np.empty((0, 2), np.int64), [], tag="x"
            )
            ctx.exchange_multicast_column([], [], ([], [0]), [], tag="x")
            ctx.exchange_multicast_column([0], empty, [[1]], empty, tag="x")
            ctx.exchange_multicast_column([0], empty, ([1], [0, 1]), empty, tag="x")
        assert cluster.ledger.round_loads(0) == {}


def _partition_registers_nothing(cluster, message, sources, targets, values):
    """A hash partition registered as the protocols write it —
    ``runs_by_target`` on the raw columns, then one ``exchange_runs`` —
    raises ``message`` and leaves the round's streams empty."""
    with pytest.raises(ProtocolError, match=message):
        with cluster.round() as ctx:
            try:
                order, *runs = runs_by_target(sources, targets)
                ctx.exchange_runs(*runs, np.asarray(values)[order], tag="x")
            finally:
                assert not ctx._multicasts and not ctx._unicast_stream


class TestHashPartitionValidation:
    """A malformed column is refused on its way through the helper and
    the call, before anything is registered; none is cut short."""

    def test_float_sources_rejected(self, cluster):
        _partition_registers_nothing(
            cluster, "sources must be an integer", [0.5], [1], [1]
        )

    def test_float_targets_rejected(self, cluster):
        _partition_registers_nothing(
            cluster, "targets must be an integer", [0], np.asarray([1.0]), [1]
        )

    def test_zero_length_float_index_array_rejected(self, cluster):
        _partition_registers_nothing(
            cluster, "integer", np.empty(0, np.float64), np.empty(0, np.int64), []
        )

    @pytest.mark.parametrize(
        "sources, targets, values",
        [([0, 1], [1], [5]), ([0], [1, 2], [5, 6]), ([0, 1], [], [])],
    )
    def test_length_mismatch_rejected(self, cluster, sources, targets, values):
        _partition_registers_nothing(
            cluster, "one source and one target per element", sources, targets, values
        )

    @pytest.mark.parametrize("index", [-1, 5, 99])
    def test_source_outside_compute_order_rejected(self, cluster, index):
        _partition_registers_nothing(cluster, "source indices", [index], [0], [1])

    @pytest.mark.parametrize("index", [-1, 5, 99])
    def test_target_outside_compute_order_rejected(self, cluster, index):
        _partition_registers_nothing(cluster, "target indices", [0], [index], [1])

    def test_two_dimensional_payload_rejected(self, cluster):
        _partition_registers_nothing(cluster, "one-dimensional", [0], [1], [[1]])

    @pytest.mark.parametrize(
        "indices", [[[1]], np.empty((0, 2), dtype=np.int64)]
    )
    @pytest.mark.parametrize("what", ["sources", "targets"])
    def test_two_dimensional_indices_rejected(self, cluster, what, indices):
        """Also when no element flows."""
        columns = {
            "sources": np.zeros(len(indices), np.int64),
            "targets": np.zeros(len(indices), np.int64),
            what: indices,
        }
        _partition_registers_nothing(
            cluster,
            f"{what} must be a one-dim",
            *columns.values(),
            [1] * len(indices),
        )

    def test_registration_after_the_round_closed_rejected(self, cluster):
        with cluster.round() as ctx:
            pass
        order, *runs = runs_by_target([0], [1])
        with pytest.raises(ProtocolError, match="already finalized"):
            ctx.exchange_runs(*runs, np.asarray([1])[order], tag="x")


def _registers_nothing(cluster, message, *args):
    """The call raises ``message`` and leaves the round's streams empty."""
    with pytest.raises(ProtocolError, match=message):
        with cluster.round() as ctx:
            try:
                ctx.exchange_multicast_column(*args, tag="x")
            finally:
                assert not ctx._multicasts and not ctx._unicast_stream


class TestExchangeMulticastColumnDelivery:
    def test_matrix_and_csr_deliver_to_every_member(self, cluster):
        order = cluster.compute_order
        for destinations in ([[2, 3], [4, 4]], ([2, 3, 4], [0, 2, 3])):
            fresh = Cluster(cluster.tree)
            with fresh.round() as ctx:
                ctx.exchange_multicast_column(
                    [0, 1], [0, 1, 0], destinations, [1, 2, 3], tag="x"
                )
            assert fresh.local(order[2], "x").tolist() == [1, 3]
            assert fresh.local(order[3], "x").tolist() == [1, 3]
            # a member listed twice in a row is one destination
            assert fresh.local(order[4], "x").tolist() == [2]
            assert fresh.received_elements(order[4]) == 1

    def test_one_group_is_a_view_several_are_one_gathered_chunk(self, cluster):
        """The view / gather split: a destination one group serves
        aliases the grouped payload; one served by several gets a
        single chunk, groups in ascending-gid order."""
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_multicast_column(
                [0, 0], [1, 0, 1, 0], ([1, 2, 2], [0, 2, 3]), [5, 6, 7, 8], tag="x"
            )
        assert cluster.local(order[1], "x").tolist() == [6, 8]
        assert cluster.local(order[2], "x").tolist() == [6, 8, 5, 7]
        assert cluster._storage.chunk_count(order[1], "x") == 1
        assert cluster._storage.chunk_count(order[2], "x") == 1
        assert np.shares_memory(
            cluster.local(order[1], "x"), cluster.local(order[2], "x")
        ) is False

    def test_whole_relation_broadcast_copies_nothing(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_multicast_column(
                [0], [0, 0, 0], [[1, 2, 3]], [5, 6, 7], tag="x"
            )
        views = [cluster.local(order[i], "x") for i in (1, 2, 3)]
        assert all(np.shares_memory(views[0], view) for view in views)


class TestExchangeMulticastColumnValidation:
    def test_registration_after_the_round_closed_rejected(self, cluster):
        with cluster.round() as ctx:
            pass
        with pytest.raises(ProtocolError, match="already finalized"):
            ctx.exchange_multicast_column([0], [0], [[1]], [1], tag="x")

    def test_float_group_sources_rejected(self, cluster):
        _registers_nothing(
            cluster, "group sources must be an integer", [0.0], [0], [[1]], [1]
        )

    @pytest.mark.parametrize(
        "group_ids, values", [([0.0], [1]), (np.empty(0, np.float64), [])]
    )
    def test_float_group_ids_rejected(self, cluster, group_ids, values):
        """An explicit float array is a bug whether or not it carries
        elements."""
        _registers_nothing(
            cluster, "group ids must be an integer", [0], group_ids, [[1]], values
        )

    @pytest.mark.parametrize(
        "group_ids, values", [([[0]], [1]), (np.empty((0, 1), np.int64), [])]
    )
    def test_two_dimensional_group_ids_rejected(self, cluster, group_ids, values):
        _registers_nothing(
            cluster, "group ids must be a one-dim", [0], group_ids, [[1]], values
        )

    @pytest.mark.parametrize(
        "destinations",
        [
            [[1.0]],
            np.empty((0, 1)),
            [[[1]]],
            [1],
            [],
            ([1.0], [0, 1]),
            ([1], [0.0, 1.0]),
            ([[1]], [0, 1]),
        ],
    )
    @pytest.mark.parametrize("values", [[1], []])
    def test_float_or_misshapen_destinations_rejected(
        self, cluster, destinations, values
    ):
        _registers_nothing(
            cluster,
            "integer|one-dimensional",
            [0] * len(destinations),
            [0] * len(values),
            destinations,
            values,
        )

    @pytest.mark.parametrize(
        "offsets", [[], [1, 2], [0, 2, 1, 2], [0, 1], [0, 3]]
    )
    @pytest.mark.parametrize("values", [[1], []])
    def test_malformed_offsets_rejected(self, cluster, offsets, values):
        _registers_nothing(
            cluster,
            "destination offsets must rise from 0 to the 2 members given",
            [0] * max(len(offsets) - 1, 0),
            [0] * len(values),
            ([1, 2], offsets),
            values,
        )

    @pytest.mark.parametrize("destinations", [[[1]], ([1], [0, 1])])
    def test_one_source_per_set_required(self, cluster, destinations):
        _registers_nothing(
            cluster, "one source index per set", [0, 1], [0], destinations, [1]
        )
        _registers_nothing(
            cluster, "one source index per set", [0, 1], [], destinations, []
        )

    def test_one_group_id_per_element_required(self, cluster):
        _registers_nothing(
            cluster, "one group id per element", [0], [0, 0], [[1]], [1]
        )

    @pytest.mark.parametrize("index", [-1, 5])
    @pytest.mark.parametrize("values", [[1], []])
    def test_source_outside_compute_order_rejected(self, cluster, index, values):
        _registers_nothing(
            cluster,
            rf"group sources span \[{index}, {index}\] but only 5 compute "
            "nodes were given",
            [index],
            [0] * len(values),
            [[1]],
            values,
        )

    @pytest.mark.parametrize("destinations", [[[1, 7]], ([-2, 1], [0, 2])])
    @pytest.mark.parametrize("values", [[1], []])
    def test_member_outside_compute_order_rejected(
        self, cluster, destinations, values
    ):
        """An index into ``compute_order`` cannot name a router or an
        unknown node: out of range is the only way to be wrong."""
        _registers_nothing(
            cluster,
            r"destination members span \[-?\d, \d\] but only 5 compute "
            "nodes were given",
            [0],
            [0] * len(values),
            destinations,
            values,
        )

    @pytest.mark.parametrize("gid", [-1, 1])
    def test_group_id_outside_the_sets_rejected(self, cluster, gid):
        _registers_nothing(
            cluster,
            rf"group ids span \[{gid}, {gid}\] but only 1 destination sets "
            "were given",
            [0],
            [gid],
            [[1]],
            [1],
        )

    @pytest.mark.parametrize(
        "destinations", [np.empty((1, 0), np.int64), ([], [0, 0])]
    )
    def test_referenced_empty_row_rejected(self, cluster, destinations):
        _registers_nothing(
            cluster, "at least one destination", [0], [0], destinations, [1]
        )

    def test_unreferenced_empty_row_tolerated(self, cluster):
        # only sets a group id names are checked, like one call per
        # group id would
        with cluster.round() as ctx:
            ctx.exchange_multicast_column(
                [0, 0], [0], ([1], [0, 1, 1]), [1], tag="x"
            )
        assert cluster.local(cluster.compute_order[1], "x").tolist() == [1]


def _rows(destinations) -> list[list[int]]:
    """The member lists of a matrix or a CSR ``(members, offsets)`` tuple."""
    if isinstance(destinations, tuple):
        members, offsets = destinations
        return [members[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    return [list(row) for row in destinations]


def _as_csr(destinations) -> tuple:
    rows = _rows(destinations)
    return sum(rows, []), [0, *np.cumsum([len(row) for row in rows]).tolist()]


def _as_matrix(destinations) -> list[list[int]]:
    """Rows padded to one width by repeating a member — rows are sets;
    an (unreferenced) empty row is filled with index 0."""
    rows = _rows(destinations)
    width = max(1, *(len(row) for row in rows))
    return [row + (row[:1] or [0]) * (width - len(row)) for row in rows]


@st.composite
def column_rounds(draw):
    """A random round mixing hash partitions, multicast columns and
    one-run records.

    Partitions come with ascending and descending sources; multicast
    columns as matrices and as CSR tuples, with repeated members, the
    source inside its own row, empty rows no group id names, and several
    records per tag.
    """
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    count = len(tree.compute_nodes)
    index = st.integers(0, count - 1)
    plan = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["column", "multicast-column", "run"]))
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
            rows = [
                draw(st.lists(index, min_size=0, max_size=count + 1))
                for _ in range(num_sets)
            ]
            referenced = [gid for gid, row in enumerate(rows) if row]
            group_ids = (
                draw(
                    st.lists(
                        st.sampled_from(referenced), min_size=size, max_size=size
                    )
                )
                if referenced
                else []
            )
            group_sources = draw(
                st.lists(index, min_size=num_sets, max_size=num_sets)
            )
            form = draw(st.sampled_from([_as_csr, _as_matrix]))
            plan.append(
                (
                    kind,
                    tag,
                    group_sources,
                    group_ids,
                    form(rows),
                    values[: len(group_ids)],
                )
            )
        else:
            plan.append((kind, tag, draw(index), draw(index), values))
    return tree, plan


def _replay(cluster, plan, form=None):
    with cluster.round() as ctx:
        for kind, tag, *args in plan:
            if kind == "column":
                hash_partition(ctx, *args, tag=tag)
            elif kind == "multicast-column":
                if form is not None:
                    args[2] = form(args[2])
                ctx.exchange_multicast_column(*args, tag=tag)
            else:
                src, dst, values = args
                ctx.exchange_runs([src], [dst], [len(values)], values, tag=tag)
    return cluster


class TestColumnEquivalenceProperty:
    @given(column_rounds())
    @settings(max_examples=80, deadline=None)
    def test_column_calls_match_the_model(self, instance):
        tree, plan = instance
        with auditing(strict=True):
            production = _replay(Cluster(tree), plan)
        assert_matches_model(production, _replay(ModelCluster(tree), plan))

    @given(column_rounds())
    @settings(max_examples=40, deadline=None)
    def test_matrix_and_csr_forms_are_identical(self, instance):
        tree, plan = instance
        with auditing(strict=True):
            as_csr = _replay(Cluster(tree), plan, _as_csr)
            as_matrix = _replay(Cluster(tree), plan, _as_matrix)
        assert_clusters_identical(as_csr, as_matrix, a_name="csr", b_name="matrix")
        assert_matches_model(as_csr, _replay(ModelCluster(tree), plan))

    @given(column_rounds())
    @settings(max_examples=40, deadline=None)
    def test_column_calls_match_their_definition(self, instance):
        """The definition, in production code on both sides: one
        single-element run per element of a partition, in column order,
        and one call per group id of a multicast column, ascending."""
        tree, plan = instance
        expanded_plan = []
        for kind, tag, *args in plan:
            if kind == "column":
                for source, target, value in zip(*args):
                    expanded_plan.append(("run", tag, source, target, [value]))
            elif kind == "multicast-column":
                group_sources, group_ids, destinations, values = args
                rows = _rows(destinations)
                for gid in sorted(set(group_ids)):
                    chunk = [v for v, g in zip(values, group_ids) if g == gid]
                    expanded_plan.append(
                        (
                            "multicast-column",
                            tag,
                            [group_sources[gid]],
                            [0] * len(chunk),
                            [sorted(set(rows[gid]))],
                            chunk,
                        )
                    )
            else:
                expanded_plan.append((kind, tag, *args))
        with use(auditor=ModelAuditor()):
            column = _replay(Cluster(tree), plan)
            one_by_one = _replay(Cluster(tree), expanded_plan)
        assert_clusters_identical(
            column, one_by_one, a_name="column", b_name="one by one"
        )


@st.composite
def unicast_pairs(draw):
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    node = st.sampled_from(sorted(tree.compute_nodes, key=str))
    return tree, draw(st.lists(st.tuples(node, node), min_size=1, max_size=30))


@given(unicast_pairs())
@settings(max_examples=40, deadline=None)
def test_routing_index_matches_path_walks(instance):
    """The vectorized tree-flow charger equals per-pair path walks."""
    tree, pairs = instance
    routing = RoutingIndex(tree)
    expected: dict = {}
    for src, dst in pairs:
        for edge in path_edges(tree, src, dst):
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
