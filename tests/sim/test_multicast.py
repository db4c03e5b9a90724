"""Tests for the batched multicast and its accounting.

The contract under test: one :meth:`RoundContext.exchange_multicast_column`
call is observably identical to a loop of one call per group — same
per-node storage (content *and* element order), same
``received_elements``, same per-edge ledger loads — on any topology and
any family of Steiner destination sets.
The production cluster, the looped expansion, and the transfer-by-
transfer Section-2 model (``tests/model/rounds.py``) are compared end to
end, and the vectorized :meth:`RoutingIndex.multicast_loads`
charger is checked against per-group Steiner-edge walks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.suites import standard_topologies
from repro.context import use
from repro.obs.audit import auditing
from repro.sim.cluster import Cluster
from repro.sim.ledger import CostLedger
from repro.topology.builders import two_level
from repro.topology.steiner import RoutingIndex

from tests.cluster_identity import assert_matches_model
from tests.model.rounds import ModelAuditor, ModelCluster
from tests.strategies import tree_topologies
from tests.model.paths import steiner_links


def _snapshot(cluster, tags=("recv", "other")):
    computes = cluster.compute_order
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


def _csr(rows) -> tuple:
    """Index rows as a CSR ``(members, offsets)`` pair."""
    return sum(rows, []), np.cumsum([0, *map(len, rows)])


def _register(ctx, node, group_ids, rows, values, tag, *, looped):
    """One node's grouped multicasts: a column call, or the loop of
    one-group calls it equals."""
    if not looped:
        ctx.exchange_multicast_column(
            [node] * len(rows), group_ids, _csr(rows), values, tag=tag
        )
        return
    ids = np.asarray(group_ids, dtype=np.int64)
    chunk = np.asarray(values, dtype=np.int64)
    for gid in np.unique(ids).tolist():
        members = chunk[ids == gid]
        ctx.exchange_multicast_column(
            [node], np.zeros(len(members), np.intp), [rows[gid]], members, tag=tag
        )


def test_interleaves_with_runs_and_multicasts_across_models():
    """Mixed traffic on one (dst, tag) lands in registration order
    (unicasts first, then the multicast stream) in production and
    in the model."""
    tree = two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
    cluster, model = Cluster(tree), ModelCluster(tree)
    position = tree.compute_position
    v1, v2, v3, v4, v5 = (position[f"v{i}"] for i in range(1, 6))
    for built in (cluster, model):
        with built.round() as ctx:
            ctx.exchange_multicast_column([v2], [0], [[v4, v5]], [100], tag="x")
            ctx.exchange_multicast_column(
                [v1] * 2,
                [1, 0, 1],
                _csr([[v4], [v4, v5]]),
                [1, 2, 3],
                tag="x",
            )
            ctx.exchange_runs([v3], [v4], [1], [200], tag="x")
    assert_matches_model(cluster, model)
    assert cluster.local("v4", "x").tolist() == [200, 100, 2, 1, 3]


class TestStandardTopologyEquivalence:
    """exchange_multicast_column equals a loop of one-group calls on every
    standard benchmark topology."""

    @pytest.mark.parametrize(
        "tree",
        standard_topologies(),
        ids=lambda tree: tree.name,
    )
    def test_equivalent_to_looped_multicast(self, tree):
        count = len(tree.compute_nodes)
        # the intersection replication shape: {hashed owner} | Vbeta
        beta = list(range(0, count, max(1, count // 3)))
        rows = [sorted({*beta, v}) for v in range(count)]
        rng = np.random.default_rng(7)
        plan = [
            (
                node,
                rng.integers(0, len(rows), size=5 + node),
                rng.integers(-50, 50, size=5 + node),
            )
            for node in range(count)
        ]

        def replay(cluster, looped):
            with cluster.round() as ctx:
                for node, group_ids, values in plan:
                    _register(
                        ctx, node, group_ids, rows, values, "recv", looped=looped
                    )

        bulk = Cluster(tree)
        replay(bulk, looped=False)
        looped = Cluster(tree)
        replay(looped, looped=True)
        model = ModelCluster(tree)
        replay(model, looped=False)

        assert _snapshot(bulk, tags=("recv",)) == _snapshot(
            looped, tags=("recv",)
        )
        assert_matches_model(bulk, model)


def _random_multicast_plan(draw, tree):
    """A registration-ordered mix of many- and one-group multicast
    columns and one-run records, every node a compute-order index."""
    count = len(tree.compute_nodes)
    node = st.integers(0, count - 1)
    node_set = st.lists(node, min_size=1, max_size=min(4, count), unique=True)
    plan = []
    for source in range(count):
        for _ in range(draw(st.integers(1, 2))):
            tag = draw(st.sampled_from(["recv", "other"]))
            kind = draw(st.sampled_from(["column", "multicast", "run"]))
            if kind == "column":
                rows = [draw(node_set) for _ in range(draw(st.integers(1, 3)))]
                size = draw(st.integers(0, 10))
                group_ids = [
                    draw(st.integers(0, len(rows) - 1)) for _ in range(size)
                ]
            else:
                rows = [draw(node_set if kind == "multicast" else st.tuples(node))]
                size = draw(st.integers(1, 8))
                group_ids = None
            values = [draw(st.integers(-50, 50)) for _ in range(size)]
            plan.append((kind, source, group_ids, [list(r) for r in rows], values, tag))
    return plan


@st.composite
def multicast_instances(draw):
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    return tree, _random_multicast_plan(draw, tree)


class TestExchangeMulticastEquivalenceProperty:
    @given(multicast_instances())
    @settings(max_examples=60, deadline=None)
    def test_batched_matches_looped_and_the_model(self, instance):
        """The contract: byte-identical storage, received counts, and
        per-edge ledgers between one exchange_multicast_column call, the
        equivalent loop of one-group calls, and the model, on random
        topologies with interleaved traffic."""
        tree, plan = instance

        def replay(cluster, looped):
            with cluster.round() as ctx:
                for kind, node, group_ids, rows, values, tag in plan:
                    if kind == "run":
                        ((dst,),) = rows
                        ctx.exchange_runs([node], [dst], [len(values)], values, tag=tag)
                    elif kind == "multicast":
                        ctx.exchange_multicast_column(
                            [node], [0] * len(values), [rows[0]], values, tag=tag
                        )
                    else:
                        _register(
                            ctx, node, group_ids, rows, values, tag, looped=looped
                        )

        bulk = Cluster(tree)
        with auditing(strict=True):
            replay(bulk, looped=False)
        looped = Cluster(tree)
        with use(auditor=ModelAuditor()):
            replay(looped, looped=True)
        model = ModelCluster(tree)
        replay(model, looped=False)

        assert _snapshot(bulk) == _snapshot(looped)
        assert_matches_model(bulk, model)

    @given(multicast_instances())
    @settings(max_examples=40, deadline=None)
    def test_multicast_loads_matches_steiner_walks(self, instance):
        """The vectorized Steiner-flow charger equals per-group walks."""
        tree, plan = instance
        routing = RoutingIndex(tree)
        order = tree.compute_nodes
        srcs, flat, starts, ends, counts = [], [], [], [], []
        expected: dict = {}
        for _kind, node, group_ids, rows, values, _tag in plan:
            ids = np.asarray(
                group_ids if group_ids is not None else [0] * len(values),
                dtype=np.int64,
            )
            for index in np.unique(ids).tolist():
                count = int((ids == index).sum())
                dsts = [order[m] for m in rows[index]]
                srcs.append(routing.index_of[order[node]])
                starts.append(len(flat))
                flat.extend(routing.index_of[d] for d in dsts)
                ends.append(len(flat))
                counts.append(count)
                for edge in steiner_links(tree, order[node], dsts):
                    expected[edge] = expected.get(edge, 0) + count
        if not srcs:
            return
        got = routing.multicast_loads(
            np.asarray(srcs),
            np.asarray(flat),
            np.asarray(starts),
            np.asarray(ends),
            np.asarray(counts),
        )
        # the kernel returns the ledger's slot array: compare what the
        # ledger presents of it
        ledger = CostLedger(tree)
        ledger.open_round()
        ledger.add_link_loads(got)
        assert ledger.round_loads(0) == expected
