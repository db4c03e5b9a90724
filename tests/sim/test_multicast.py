"""Tests for the batched multicast and its accounting.

The contract under test: one :meth:`RoundContext.exchange_multicast_column`
call is observably identical to the equivalent per-group
:meth:`RoundContext.multicast` loop — same per-node storage (content
*and* element order), same ``received_elements``, same per-edge ledger
loads — on any topology and any family of Steiner destination sets.
The production cluster, the looped expansion, and the transfer-by-
transfer reference model (``tests/reference_delivery.py``) are compared
end to end, and the vectorized :meth:`RoutingIndex.multicast_loads`
charger is checked against per-group Steiner-edge walks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.suites import standard_topologies
from repro.obs.audit import auditing
from repro.parallel.oracle import assert_clusters_identical
from repro.sim.cluster import Cluster
from repro.sim.ledger import CostLedger
from repro.topology.builders import two_level
from repro.topology.steiner import PathOracle, RoutingIndex

from tests.reference_delivery import ReferenceCluster
from tests.strategies import tree_topologies


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
    """One node's grouped multicasts: a column call, or the loop it equals."""
    order = ctx._cluster.compute_order
    if not looped:
        ctx.exchange_multicast_column(
            [node] * len(rows), group_ids, _csr(rows), values, tag=tag
        )
        return
    ids = np.asarray(group_ids, dtype=np.int64)
    chunk = np.asarray(values, dtype=np.int64)
    for gid in np.unique(ids).tolist():
        ctx.multicast(
            order[node],
            [order[m] for m in rows[gid]],
            chunk[ids == gid],
            tag=tag,
        )


def test_interleaves_with_sends_and_multicasts_across_models():
    """Mixed traffic on one (dst, tag) lands in registration order
    (unicasts first, then the multicast stream) in production and
    in the reference model."""
    results = {}
    for model, build in (
        ("production", Cluster),
        ("reference", ReferenceCluster),
    ):
        cluster = build(
            two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
        )
        position = cluster.artifacts.compute_position
        v4, v5 = position["v4"], position["v5"]
        with cluster.round() as ctx:
            ctx.multicast("v2", {"v4", "v5"}, [100], tag="x")
            ctx.exchange_multicast_column(
                [position["v1"]] * 2,
                [1, 0, 1],
                _csr([[v4], [v4, v5]]),
                [1, 2, 3],
                tag="x",
            )
            ctx.send("v3", "v4", [200], tag="x")
        results[model] = _snapshot(cluster, tags=("x",))
    assert results["production"] == results["reference"]
    storage = results["production"][0]
    assert storage[("v4", "x")] == [200, 100, 2, 1, 3]


class TestStandardTopologyEquivalence:
    """exchange_multicast_column equals a looped ctx.multicast on every
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
        reference = ReferenceCluster(tree)
        replay(reference, looped=False)

        assert _snapshot(bulk, tags=("recv",)) == _snapshot(
            looped, tags=("recv",)
        )
        assert_clusters_identical(
            bulk, reference, a_name="production", b_name="reference"
        )


def _random_multicast_plan(draw, tree):
    """A registration-ordered mix of column/plain multicasts and sends,
    every node a compute-order index."""
    count = len(tree.compute_nodes)
    node = st.integers(0, count - 1)
    node_set = st.lists(node, min_size=1, max_size=min(4, count), unique=True)
    plan = []
    for source in range(count):
        for _ in range(draw(st.integers(1, 2))):
            tag = draw(st.sampled_from(["recv", "other"]))
            kind = draw(st.sampled_from(["column", "multicast", "send"]))
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
    def test_batched_matches_looped_and_per_send(self, instance):
        """The contract: byte-identical storage, received counts, and
        per-edge ledgers between one exchange_multicast_column call, the
        equivalent multicast loop, and the reference model, on random
        topologies with interleaved traffic."""
        tree, plan = instance

        def replay(cluster, looped):
            order = cluster.compute_order
            with cluster.round() as ctx:
                for kind, node, group_ids, rows, values, tag in plan:
                    if kind == "send":
                        ((dst,),) = rows
                        ctx.send(order[node], order[dst], values, tag=tag)
                    elif kind == "multicast":
                        ctx.multicast(
                            order[node], [order[m] for m in rows[0]], values, tag=tag
                        )
                    else:
                        _register(
                            ctx, node, group_ids, rows, values, tag, looped=looped
                        )

        bulk = Cluster(tree)
        with auditing(strict=True):
            replay(bulk, looped=False)
        looped = Cluster(tree)
        replay(looped, looped=True)
        reference = ReferenceCluster(tree)
        replay(reference, looped=False)

        assert _snapshot(bulk) == _snapshot(looped)
        assert_clusters_identical(
            bulk, reference, a_name="production", b_name="reference"
        )

    @given(multicast_instances())
    @settings(max_examples=40, deadline=None)
    def test_multicast_loads_matches_steiner_walks(self, instance):
        """The vectorized Steiner-flow charger equals per-group walks."""
        tree, plan = instance
        oracle = PathOracle(tree)
        routing = RoutingIndex(tree)
        order = routing.compute_nodes
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
                for edge in oracle.steiner_edges(order[node], dsts):
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


_HASHSEED_SCRIPT = """
import json
import repro

def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, (list, tuple)):
        return [strip(v) for v in value]
    return value

tree = repro.two_level([3, 4, 2], uplink_bandwidth=[1, 2, 4])
star = repro.star(5)
assert all(isinstance(v, str) for v in tree.compute_nodes | star.compute_nodes)
sets = repro.random_distribution(tree, r_size=300, s_size=900, policy="zipf", seed=5)
tuples = repro.random_tuple_distribution(tree, r_size=300, s_size=300, seed=5)
graph = repro.random_graph_distribution(
    tree, num_edges=400, num_vertices=90, policy="zipf", seed=11
)
with repro.auditing(strict=True):
    reports = [
        repro.run("set-intersection", tree, sets, protocol="tree", seed=2),
        repro.run("equijoin", tree, tuples, protocol="tree", seed=2),
        repro.run(
            "cartesian-product",
            tree,
            repro.random_distribution(tree, r_size=300, s_size=300, seed=5),
            protocol="tree",
        ),
        repro.run(
            "set-intersection",
            star,
            repro.random_distribution(star, r_size=200, s_size=200, seed=5),
            protocol="star",
            seed=2,
        ),
        repro.run_components(tree, graph, protocol="tree", seed=2),
    ]
for report in reports:
    print(json.dumps(strip(report.to_dict()), sort_keys=True, default=str))
"""


def test_multicast_reports_do_not_depend_on_the_hash_seed():
    """String node ids hash differently per ``PYTHONHASHSEED``: the
    index-array rounds (tree intersect / equi-join, star intersect, the
    cartesian tile routing, the components return leg) never see a set,
    and ``multicast`` sorts the member indices it builds from its set."""
    src = Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for hash_seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    rows = [json.loads(line) for line in outputs[0].splitlines()]
    assert [row["protocol"] for row in rows] == [
        "tree-intersect",
        "tree-equijoin",
        "tree-cartesian",
        "star-intersect",
        "tree-components",
    ]


_UNICAST_HASHSEED_SCRIPT = """
import hashlib
import json
import repro
from repro.analysis.serve import strip_report
from repro.plan import chain_catalog, chain_query
from repro.sim import cluster as sim

built = []

class Recording(sim.Cluster):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        built.append(self)

sim.Cluster = Recording  # what make_cluster builds on "sim"

tree = repro.two_level([3, 4, 2], uplink_bandwidth=[1, 2, 4])
assert all(isinstance(v, str) for v in tree.compute_nodes)
tuples = repro.random_tuple_distribution(tree, r_size=300, s_size=300, seed=5)
catalog = chain_catalog(tree, num_relations=3, rows=120, key_space=32, seed=3)
with repro.auditing(strict=True):
    reports = [
        repro.run("equijoin", tree, tuples, protocol="uniform-hash", seed=2),
        repro.run_plan(chain_query(3), tree, catalog, seed=4),
    ]
for report in reports:
    print(json.dumps(strip_report(report), sort_keys=True, default=str))
for cluster in built:
    ledger = cluster.ledger
    for index in range(ledger.num_rounds):
        print(sorted((str(e), n) for e, n in ledger.round_loads(index).items()))
    # in the store's own order: what load and delivery put where, and when
    sizes = cluster._storage.sizes()
    print(json.dumps(sizes))
    for node, tags in sizes.items():
        for tag in tags:
            held = cluster.local(node, tag).tobytes()
            print(node, tag, hashlib.blake2b(held, digest_size=8).hexdigest())
"""


def test_unicast_runs_and_plans_do_not_depend_on_the_hash_seed():
    """``Cluster.load`` installs sorted tag by the placement's node
    tuple, and unicast delivery installs in destination-index order:
    ledger rounds, the store's contents *and its order*, and the
    stripped reports of a hashed equi-join and a chain-3 plan are the
    same under two ``PYTHONHASHSEED``s."""
    src = Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for hash_seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", _UNICAST_HASHSEED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    reports = [json.loads(line) for line in outputs[0].splitlines()[:2]]
    assert reports[0]["protocol"] == "uniform-hash-equijoin"
    assert len(reports[1]["stages"]) == 2
