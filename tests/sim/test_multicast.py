"""Tests for the batched multicast and its accounting.

The contract under test: one :meth:`RoundContext.exchange_multicast_runs`
call is observably identical to a loop of one call per run — same
per-node storage (content *and* element order), same
``received_elements``, same per-edge ledger loads — on any topology and
any family of Steiner destination sets.
The production cluster, the looped expansion, and the transfer-by-
transfer Section-2 model (``tests/model/rounds.py``) are compared end to
end, and the vectorized :meth:`RoutingIndex.multicast_loads`
charger is checked against per-run Steiner-edge walks.
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


def _register(ctx, node, rows, counts, values, tag, *, looped):
    """One node's multicast runs: one call, or the loop of one-run
    calls it equals."""
    if not looped:
        ctx.exchange_multicast_runs(
            [node] * len(rows), _csr(rows), counts, values, tag=tag
        )
        return
    ends = np.cumsum(counts).tolist()
    for row, count, end in zip(rows, counts, ends):
        ctx.exchange_multicast_runs(
            [node], [row], [count], values[end - count : end], tag=tag
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
            ctx.exchange_multicast_runs([v2], [[v4, v5]], [1], [100], tag="x")
            ctx.exchange_multicast_runs(
                [v1] * 2, _csr([[v4], [v4, v5]]), [1, 2], [2, 1, 3], tag="x"
            )
            ctx.exchange_runs([v3], [v4], [1], [200], tag="x")
    assert_matches_model(cluster, model)
    assert cluster.local("v4", "x").tolist() == [200, 100, 2, 1, 3]


class TestStandardTopologyEquivalence:
    """exchange_multicast_runs equals a loop of one-run calls on every
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
        sets = [sorted({*beta, v}) for v in range(count)]
        rng = np.random.default_rng(7)
        plan = []
        for node in range(count):
            # runs may repeat a set, and may be empty
            picks = rng.integers(0, len(sets), size=2 + node % 4)
            counts = rng.integers(0, 4, size=len(picks))
            values = rng.integers(-50, 50, size=counts.sum())
            plan.append((node, [sets[i] for i in picks], counts, values))

        def replay(cluster, looped):
            with cluster.round() as ctx:
                for node, rows, counts, values in plan:
                    _register(
                        ctx, node, rows, counts, values, "recv", looped=looped
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
    """A registration-ordered mix of many- and one-run multicast
    registrations and one-run unicast records, every node a
    compute-order index."""
    count = len(tree.compute_nodes)
    node = st.integers(0, count - 1)
    node_set = st.lists(node, min_size=1, max_size=min(4, count), unique=True)
    plan = []
    for source in range(count):
        for _ in range(draw(st.integers(1, 2))):
            tag = draw(st.sampled_from(["recv", "other"]))
            kind = draw(st.sampled_from(["runs", "multicast", "run"]))
            if kind == "runs":
                rows = [draw(node_set) for _ in range(draw(st.integers(1, 3)))]
                counts = [draw(st.integers(0, 4)) for _ in rows]
            else:
                rows = [draw(node_set if kind == "multicast" else st.tuples(node))]
                counts = [draw(st.integers(1, 8))]
            values = [draw(st.integers(-50, 50)) for _ in range(sum(counts))]
            plan.append((kind, source, [list(r) for r in rows], counts, values, tag))
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
        per-edge ledgers between one exchange_multicast_runs call, the
        equivalent loop of one-run calls, and the model, on random
        topologies with interleaved traffic."""
        tree, plan = instance

        def replay(cluster, looped):
            with cluster.round() as ctx:
                for kind, node, rows, counts, values, tag in plan:
                    if kind == "run":
                        ((dst,),) = rows
                        ctx.exchange_runs([node], [dst], counts, values, tag=tag)
                    elif kind == "multicast":
                        ctx.exchange_multicast_runs(
                            [node], rows, counts, values, tag=tag
                        )
                    else:
                        _register(
                            ctx, node, rows, counts, values, tag, looped=looped
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
        """The vectorized Steiner-flow charger equals per-run walks."""
        tree, plan = instance
        routing = RoutingIndex(tree)
        order = tree.compute_nodes
        srcs, flat, starts, ends, counts = [], [], [], [], []
        expected: dict = {}
        for _kind, node, rows, run_counts, _values, _tag in plan:
            for row, count in zip(rows, run_counts):
                if not count:
                    continue
                dsts = [order[m] for m in row]
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
