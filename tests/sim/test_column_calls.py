"""Relations at a time: ``column``, a hash partition (the column cut
into runs by ``runs_by_target``, one ``exchange_runs``) and
``exchange_multicast_runs``.

The contract under test: a hash partition is observably identical to
one single-element run per element in column order, one
``exchange_multicast_runs`` to one call per run in registration order —
same storage bytes, received counts and per-edge loads — which the
transfer-by-transfer Section-2 model in ``tests/model/rounds.py`` spells
out.  Destination sets are compute-order index arrays, a
``(runs, k)`` matrix or a CSR ``(members, offsets)`` tuple; validation
is span and count checks, run before anything is registered.  The
unicast checks are ``exchange_runs``'s own (``test_exchange_runs.py``);
a hash partition reaches them through ``runs_by_target``, which itself
refuses columns of two lengths or more than one dimension.
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
            ctx.exchange_multicast_runs(
                [], np.empty((0, 2), np.int64), [], [], tag="x"
            )
            ctx.exchange_multicast_runs([], ([], [0]), [], [], tag="x")
            ctx.exchange_multicast_runs([0], [[1]], [0], empty, tag="x")
            ctx.exchange_multicast_runs([0], ([1], [0, 1]), [0], empty, tag="x")
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
                ctx.exchange_multicast_runs(*args, tag="x")
            finally:
                assert not ctx._multicasts and not ctx._unicast_stream


class TestExchangeMulticastRunsDelivery:
    def test_matrix_and_csr_deliver_to_every_member(self, cluster):
        order = cluster.compute_order
        for destinations in ([[2, 3], [4, 4]], ([2, 3, 4], [0, 2, 3])):
            fresh = Cluster(cluster.tree)
            with fresh.round() as ctx:
                ctx.exchange_multicast_runs(
                    [0, 1], destinations, [2, 1], [1, 3, 2], tag="x"
                )
            assert fresh.local(order[2], "x").tolist() == [1, 3]
            assert fresh.local(order[3], "x").tolist() == [1, 3]
            # a member listed twice in a row is one destination
            assert fresh.local(order[4], "x").tolist() == [2]
            assert fresh.received_elements(order[4]) == 1

    def test_one_run_is_a_view_several_are_one_gathered_chunk(self, cluster):
        """The view / gather split: a destination one run serves
        aliases the payload; one served by several gets a single chunk,
        runs in registration order."""
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_multicast_runs(
                [0, 0], ([1, 2, 2], [0, 2, 3]), [2, 2], [6, 8, 5, 7], tag="x"
            )
        assert cluster.local(order[1], "x").tolist() == [6, 8]
        assert cluster.local(order[2], "x").tolist() == [6, 8, 5, 7]
        assert cluster._storage.chunk_count(order[1], "x") == 1
        assert cluster._storage.chunk_count(order[2], "x") == 1
        assert np.shares_memory(
            cluster.local(order[1], "x"), cluster.local(order[2], "x")
        ) is False

    def test_each_destination_receives_runs_in_registration_order(self, cluster):
        """No run is reordered by its source or its set: the second run
        to node 2 lands after the first, whatever their sources."""
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_multicast_runs(
                [4, 0, 4], [[2, 2], [1, 2], [2, 3]], [1, 2, 1], [5, 6, 7, 8], tag="x"
            )
            ctx.exchange_multicast_runs([0], [[2]], [1], [9], tag="x")
        assert cluster.local(order[2], "x").tolist() == [5, 6, 7, 8, 9]
        assert cluster.local(order[1], "x").tolist() == [6, 7]
        assert cluster.local(order[3], "x").tolist() == [8]

    def test_whole_relation_broadcast_copies_nothing(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_multicast_runs([0], [[1, 2, 3]], [3], [5, 6, 7], tag="x")
        views = [cluster.local(order[i], "x") for i in (1, 2, 3)]
        assert all(np.shares_memory(views[0], view) for view in views)


class TestExchangeMulticastRunsValidation:
    def test_registration_after_the_round_closed_rejected(self, cluster):
        with cluster.round() as ctx:
            pass
        with pytest.raises(ProtocolError, match="already finalized"):
            ctx.exchange_multicast_runs([0], [[1]], [1], [1], tag="x")

    def test_float_sources_rejected(self, cluster):
        _registers_nothing(
            cluster, "sources must be an integer", [0.0], [[1]], [1], [1]
        )

    @pytest.mark.parametrize(
        "counts, values", [([1.0], [1]), (np.empty(0, np.float64), [])]
    )
    def test_float_counts_rejected(self, cluster, counts, values):
        """An explicit float array is a bug whether or not it carries
        elements."""
        _registers_nothing(
            cluster, "counts must be an integer", [0], [[1]], counts, values
        )

    @pytest.mark.parametrize(
        "counts, values", [([[1]], [1]), (np.empty((0, 1), np.int64), [])]
    )
    def test_two_dimensional_counts_rejected(self, cluster, counts, values):
        _registers_nothing(
            cluster, "counts must be a one-dim", [0], [[1]], counts, values
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
            destinations,
            [len(values)] * len(destinations),
            values,
        )

    @pytest.mark.parametrize(
        "offsets", [[], [1, 2], [0, 2, 1, 2], [0, 1], [0, 3]]
    )
    @pytest.mark.parametrize("values", [[1], []])
    def test_malformed_offsets_rejected(self, cluster, offsets, values):
        runs = max(len(offsets) - 1, 0)
        _registers_nothing(
            cluster,
            "destination offsets must rise from 0 to the 2 members given",
            [0] * runs,
            ([1, 2], offsets),
            [len(values)] + [0] * (runs - 1) if runs else [],
            values,
        )

    @pytest.mark.parametrize(
        "sources, destinations, counts",
        [
            ([0, 1], [[1]], [1]),
            ([0, 1], ([1], [0, 1]), [1]),
            ([0], [[1], [2]], [1]),
            ([0], ([1, 2], [0, 1, 2]), [1]),
            ([0], [[1]], [1, 0]),
            ([0], ([1], [0, 1]), [0, 1]),
        ],
    )
    @pytest.mark.parametrize("payload", [True, False])
    def test_one_source_set_and_count_per_run_required(
        self, cluster, sources, destinations, counts, payload
    ):
        _registers_nothing(
            cluster,
            "one source, one destination set and one count per run",
            sources,
            destinations,
            counts if payload else [0] * len(counts),
            [1] if payload else [],
        )

    @pytest.mark.parametrize(
        "counts, values", [([2], [1]), ([0], [1]), ([1], []), ([1, 1], [1])]
    )
    def test_counts_must_sum_to_the_payload(self, cluster, counts, values):
        _registers_nothing(
            cluster,
            f"{len(values)} values but the run counts sum to {sum(counts)}",
            [0] * len(counts),
            [[1]] * len(counts),
            counts,
            values,
        )

    @pytest.mark.parametrize("values", [[1], []])
    def test_negative_counts_rejected(self, cluster, values):
        _registers_nothing(
            cluster,
            "run counts must be non-negative",
            [0, 0],
            [[1], [2]],
            [-1, len(values) + 1],
            values,
        )

    @pytest.mark.parametrize("index", [-1, 5])
    @pytest.mark.parametrize("values", [[1], []])
    def test_source_outside_compute_order_rejected(self, cluster, index, values):
        _registers_nothing(
            cluster,
            rf"source indices span \[{index}, {index}\] but only 5 compute "
            "nodes were given",
            [index],
            [[1]],
            [len(values)],
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
            destinations,
            [len(values)],
            values,
        )

    @pytest.mark.parametrize(
        "destinations", [np.empty((1, 0), np.int64), ([], [0, 0])]
    )
    def test_run_with_elements_and_no_destination_rejected(
        self, cluster, destinations
    ):
        _registers_nothing(
            cluster, "at least one destination", [0], destinations, [1], [1]
        )

    def test_empty_run_without_destination_tolerated(self, cluster):
        # an empty run sends nothing, like a call of its own would
        with cluster.round() as ctx:
            ctx.exchange_multicast_runs(
                [0, 0], ([1], [0, 1, 1]), [1, 0], [1], tag="x"
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
    an empty row (an empty run's) is filled with index 0."""
    rows = _rows(destinations)
    width = max(1, *(len(row) for row in rows))
    return [row + (row[:1] or [0]) * (width - len(row)) for row in rows]


@st.composite
def multicast_runs(draw, count: int):
    """One ``exchange_multicast_runs`` registration's ``(sources,
    destinations, counts)``: zero-count runs (an empty set has one),
    sets with repeated members, runs repeating an earlier run's source
    and set, and sources inside their own set."""
    index = st.integers(0, count - 1)
    sources, rows, counts = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        if rows and draw(st.booleans()):
            pick = draw(st.integers(0, len(rows) - 1))
            source, row = sources[pick], list(rows[pick])
        else:
            source = draw(index)
            row = draw(st.lists(index, min_size=0, max_size=count + 1))
            if draw(st.booleans()):
                row.append(source)
        sources.append(source)
        rows.append(row)
        counts.append(draw(st.integers(0, 3)) if row else 0)
    return sources, draw(st.sampled_from([_as_csr, _as_matrix]))(rows), counts


@st.composite
def column_rounds(draw):
    """A random round mixing hash partitions, multicast runs and
    one-run records on one or two tags.

    Partitions come with ascending and descending sources; multicast
    runs as :func:`multicast_runs` draws them, several records per tag.
    """
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    count = len(tree.compute_nodes)
    index = st.integers(0, count - 1)
    plan = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["column", "multicast-runs", "run"]))
        tag = draw(st.sampled_from(["recv", "other"]))
        if kind == "multicast-runs":
            sources, destinations, counts = draw(multicast_runs(count))
            size = sum(counts)
        else:
            size = draw(st.integers(0, 8))
        values = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
        if kind == "column":
            sources = sorted(draw(st.lists(index, min_size=size, max_size=size)))
            if draw(st.booleans()):
                sources.reverse()
            targets = draw(st.lists(index, min_size=size, max_size=size))
            plan.append((kind, tag, sources, targets, values))
        elif kind == "multicast-runs":
            plan.append((kind, tag, sources, destinations, counts, values))
        else:
            plan.append((kind, tag, draw(index), draw(index), values))
    return tree, plan


def _replay(cluster, plan, form=None):
    with cluster.round() as ctx:
        for kind, tag, *args in plan:
            if kind == "column":
                hash_partition(ctx, *args, tag=tag)
            elif kind == "multicast-runs":
                if form is not None:
                    args[1] = form(args[1])
                ctx.exchange_multicast_runs(*args, tag=tag)
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
        and one call per run of a multicast registration, in order."""
        tree, plan = instance
        expanded_plan = []
        for kind, tag, *args in plan:
            if kind == "column":
                for source, target, value in zip(*args):
                    expanded_plan.append(("run", tag, source, target, [value]))
            elif kind == "multicast-runs":
                sources, destinations, counts, values = args
                ends = np.cumsum(counts).tolist()
                for source, row, count, end in zip(
                    sources, _rows(destinations), counts, ends
                ):
                    expanded_plan.append(
                        (
                            "multicast-runs",
                            tag,
                            [source],
                            [sorted(set(row)) or [0]],
                            [count],
                            values[end - count : end],
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
