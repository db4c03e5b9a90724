"""Tests for the batched multicast primitive and its accounting.

The contract under test: one :meth:`RoundContext.exchange_multicast`
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
from repro.errors import ProtocolError
from repro.obs.audit import auditing
from repro.parallel.oracle import assert_clusters_identical
from repro.sim.cluster import Cluster
from repro.sim.ledger import CostLedger
from repro.topology.builders import two_level
from repro.topology.steiner import PathOracle, RoutingIndex
from repro.topology.tree import node_sort_key

from tests.reference_delivery import ReferenceCluster
from tests.strategies import tree_topologies


@pytest.fixture
def cluster():
    return Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))


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


class TestExchangeMulticastBasics:
    def test_delivers_to_every_member_in_element_order(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast(
                "v1",
                [0, 1, 0],
                [{"v3", "v4"}, {"v5"}],
                [1, 2, 3],
                tag="x",
            )
        assert cluster.local("v3", "x").tolist() == [1, 3]
        assert cluster.local("v4", "x").tolist() == [1, 3]
        assert cluster.local("v5", "x").tolist() == [2]

    def test_charges_steiner_sets_like_looped_multicast(self):
        a = Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))
        b = Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))
        sets = [frozenset({"v3", "v4"}), frozenset({"v2", "v5"})]
        group_ids = np.array([0, 1, 0, 0, 1])
        values = np.array([1, 2, 3, 4, 5])
        with a.round() as ctx:
            ctx.exchange_multicast("v1", group_ids, sets, values, tag="x")
        with b.round() as ctx:
            for index in np.unique(group_ids):
                ctx.multicast(
                    "v1", sets[index], values[group_ids == index], tag="x"
                )
        assert a.ledger.round_loads(0) == b.ledger.round_loads(0)
        for v in a.compute_order:
            assert a.local(v, "x").tolist() == b.local(v, "x").tolist()
            assert a.received_elements(v) == b.received_elements(v)

    def test_self_only_destination_set_is_stored_free(self):
        """A destination set containing only the source stores a copy
        at zero link cost — in multicast and exchange_multicast alike."""
        for batched in (False, True):
            cluster = Cluster(
                two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
            )
            with cluster.round() as ctx:
                if batched:
                    ctx.exchange_multicast(
                        "v1", [0, 0], [{"v1"}], [7, 8], tag="x"
                    )
                else:
                    ctx.multicast("v1", {"v1"}, [7, 8], tag="x")
            assert cluster.local("v1", "x").tolist() == [7, 8]
            assert cluster.ledger.round_loads(0) == {}
            assert cluster.received_elements("v1") == 0

    def test_source_inside_larger_destination_set(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast(
                "v1", [0, 0], [{"v1", "v2"}], [7, 8], tag="x"
            )
        assert cluster.local("v1", "x").tolist() == [7, 8]
        assert cluster.local("v2", "x").tolist() == [7, 8]
        assert cluster.received_elements("v1") == 0
        assert cluster.received_elements("v2") == 2
        # one copy crosses v1 -> core -> v2, charged once per link
        assert all(
            count == 2 for count in cluster.ledger.round_loads(0).values()
        )

    def test_interleaves_with_sends_and_multicasts_across_modes(self):
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
            with cluster.round() as ctx:
                ctx.multicast("v2", {"v4", "v5"}, [100], tag="x")
                ctx.exchange_multicast(
                    "v1", [1, 0, 1], [{"v4"}, {"v4", "v5"}], [1, 2, 3], tag="x"
                )
                ctx.send("v3", "v4", [200], tag="x")
            results[model] = _snapshot(cluster, tags=("x",))
        assert results["production"] == results["reference"]
        storage = results["production"][0]
        assert storage[("v4", "x")] == [200, 100, 2, 1, 3]

    def test_empty_payload_is_free(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast("v1", [], [{"v2"}], [], tag="x")
        assert cluster.ledger.round_loads(0) == {}


class TestExchangeMulticastValidation:
    def test_router_source_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.exchange_multicast("core", [0], [{"v1"}], [1], tag="x")

    def test_router_in_destination_set_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="router"):
            with cluster.round() as ctx:
                ctx.exchange_multicast(
                    "v1", [0], [{"v2", "core"}], [1], tag="x"
                )

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("core", "destination 'core' is a router; only compute nodes "
                     "can store data"),
            ("v9", "unknown node 'v9'"),
        ],
    )
    @pytest.mark.parametrize("entry", ["single", "batched"])
    def test_bad_node_inside_a_set_is_named(self, cluster, entry, bad, message):
        """The set is validated with one subset test; on failure the
        per-node walk still names the router / unknown node.  (The
        column call takes compute-order indices, which can name
        neither.)"""
        dsts = {"v2", "v3", bad}
        with pytest.raises(ProtocolError) as raised:
            with cluster.round() as ctx:
                if entry == "single":
                    ctx.multicast("v1", dsts, [1], tag="x")
                else:
                    ctx.exchange_multicast("v1", [0], [dsts], [1], tag="x")
        assert str(raised.value) == message

    def test_unknown_node_in_unused_destination_set_tolerated(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast(
                "v1", [0, 0], [{"v2"}, {"v9"}], [1, 2], tag="x"
            )
            ctx.exchange_multicast("v3", [0], [{"v2"}, {"v9"}], [3], tag="x")
        assert cluster.local("v2", "x").tolist() == [1, 2, 3]

    def test_router_in_unused_destination_set_tolerated(self, cluster):
        # validation covers the destination sets actually referenced,
        # like the equivalent multicast loop would
        with cluster.round() as ctx:
            ctx.exchange_multicast(
                "v1", [0, 0], [{"v2"}, {"core"}], [1, 2], tag="x"
            )
        assert cluster.local("v2", "x").tolist() == [1, 2]

    def test_empty_used_destination_set_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="at least one destination"):
            with cluster.round() as ctx:
                ctx.exchange_multicast(
                    "v1", [0, 1], [{"v2"}, frozenset()], [1, 2], tag="x"
                )

    def test_empty_unused_destination_set_tolerated(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_multicast(
                "v1", [0, 0], [{"v2"}, frozenset()], [1, 2], tag="x"
            )
        assert cluster.local("v2", "x").tolist() == [1, 2]

    def test_length_mismatch_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="one group id"):
            with cluster.round() as ctx:
                ctx.exchange_multicast("v1", [0, 0], [{"v2"}], [1], tag="x")

    def test_out_of_range_group_id_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="group ids span"):
            with cluster.round() as ctx:
                ctx.exchange_multicast("v1", [1], [{"v2"}], [1], tag="x")

    def test_negative_group_id_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="group ids span"):
            with cluster.round() as ctx:
                ctx.exchange_multicast("v1", [-1], [{"v2"}], [1], tag="x")

    def test_float_group_ids_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="integer"):
            with cluster.round() as ctx:
                ctx.exchange_multicast("v1", [0.5], [{"v2"}], [1], tag="x")

    def test_zero_length_float_array_group_ids_rejected(self, cluster):
        """The empty-payload early return must not skip dtype checks
        (empty-payload validation regression)."""
        with pytest.raises(ProtocolError, match="integer"):
            with cluster.round() as ctx:
                ctx.exchange_multicast(
                    "v1", np.array([], dtype=np.float64), [{"v2"}], [], tag="x"
                )

    def test_two_dimensional_group_ids_rejected(self, cluster):
        with pytest.raises(ProtocolError, match="one-dimensional"):
            with cluster.round() as ctx:
                ctx.exchange_multicast("v1", [[0]], [{"v2"}], [[1]], tag="x")


class TestStandardTopologyEquivalence:
    """The satellite contract: exchange_multicast equals a looped
    ctx.multicast on every standard benchmark topology."""

    @pytest.mark.parametrize(
        "tree",
        standard_topologies(),
        ids=lambda tree: tree.name,
    )
    def test_equivalent_to_looped_multicast(self, tree):
        computes = sorted(tree.compute_nodes, key=node_sort_key)
        # the intersection replication shape: {hashed owner} | Vbeta
        beta = frozenset(computes[:: max(1, len(computes) // 3)])
        sets = [beta | {v} for v in computes]
        rng = np.random.default_rng(7)
        plan = [
            (
                node,
                rng.integers(0, len(sets), size=5 + i),
                rng.integers(-50, 50, size=5 + i),
            )
            for i, node in enumerate(computes)
        ]

        def replay(cluster, expand):
            with cluster.round() as ctx:
                for node, group_ids, values in plan:
                    if expand:
                        for index in np.unique(group_ids):
                            ctx.multicast(
                                node,
                                sets[index],
                                values[group_ids == index],
                                tag="recv",
                            )
                    else:
                        ctx.exchange_multicast(
                            node, group_ids, sets, values, tag="recv"
                        )

        bulk = Cluster(tree)
        replay(bulk, expand=False)
        looped = Cluster(tree)
        replay(looped, expand=True)
        reference = ReferenceCluster(tree)
        replay(reference, expand=False)

        assert _snapshot(bulk, tags=("recv",)) == _snapshot(
            looped, tags=("recv",)
        )
        assert_clusters_identical(
            bulk, reference, a_name="production", b_name="reference"
        )


def _random_multicast_plan(draw, tree):
    """A registration-ordered mix of batched/plain multicasts and sends."""
    computes = sorted(tree.compute_nodes, key=str)
    plan = []
    for node in computes:
        for _ in range(draw(st.integers(1, 2))):
            tag = draw(st.sampled_from(["recv", "other"]))
            kind = draw(
                st.sampled_from(["exchange_multicast", "multicast", "send"])
            )
            if kind == "exchange_multicast":
                sets = [
                    frozenset(
                        draw(
                            st.sets(
                                st.sampled_from(computes),
                                min_size=1,
                                max_size=min(4, len(computes)),
                            )
                        )
                    )
                    for _ in range(draw(st.integers(1, 3)))
                ]
                count = draw(st.integers(0, 10))
                group_ids = [
                    draw(st.integers(0, len(sets) - 1)) for _ in range(count)
                ]
                values = [draw(st.integers(-50, 50)) for _ in range(count)]
                plan.append((kind, node, group_ids, sets, values, tag))
            elif kind == "multicast":
                dsts = frozenset(
                    draw(
                        st.sets(
                            st.sampled_from(computes),
                            min_size=1,
                            max_size=min(4, len(computes)),
                        )
                    )
                )
                count = draw(st.integers(1, 8))
                values = [draw(st.integers(-50, 50)) for _ in range(count)]
                plan.append((kind, node, None, [dsts], values, tag))
            else:
                dst = draw(st.sampled_from(computes))
                count = draw(st.integers(1, 8))
                values = [draw(st.integers(-50, 50)) for _ in range(count)]
                plan.append((kind, node, None, [frozenset({dst})], values, tag))
    return computes, plan


@st.composite
def multicast_instances(draw):
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    computes, plan = _random_multicast_plan(draw, tree)
    return tree, computes, plan


class TestExchangeMulticastEquivalenceProperty:
    @given(multicast_instances())
    @settings(max_examples=60, deadline=None)
    def test_batched_matches_looped_and_per_send(self, instance):
        """The contract: byte-identical storage, received counts, and
        per-edge ledgers between one exchange_multicast call, the
        equivalent multicast loop, and the reference model, on random
        topologies with interleaved traffic."""
        tree, computes, plan = instance

        def replay(cluster, expand_batched):
            with cluster.round() as ctx:
                for kind, node, group_ids, sets, values, tag in plan:
                    if kind == "send":
                        (dst,) = sets[0]
                        ctx.send(node, dst, values, tag=tag)
                    elif kind == "multicast":
                        ctx.multicast(node, sets[0], values, tag=tag)
                    elif expand_batched:
                        ids = np.asarray(group_ids, dtype=np.int64)
                        chunk = np.asarray(values, dtype=np.int64)
                        for index in np.unique(ids):
                            ctx.multicast(
                                node, sets[index], chunk[ids == index], tag=tag
                            )
                    else:
                        ctx.exchange_multicast(
                            node, group_ids, sets, values, tag=tag
                        )

        bulk = Cluster(tree)
        with auditing(strict=True):
            replay(bulk, expand_batched=False)
        looped = Cluster(tree)
        replay(looped, expand_batched=True)
        reference = ReferenceCluster(tree)
        replay(reference, expand_batched=False)

        assert _snapshot(bulk) == _snapshot(looped)
        assert_clusters_identical(
            bulk, reference, a_name="production", b_name="reference"
        )

    @given(multicast_instances())
    @settings(max_examples=40, deadline=None)
    def test_multicast_loads_matches_steiner_walks(self, instance):
        """The vectorized Steiner-flow charger equals per-group walks."""
        tree, computes, plan = instance
        oracle = PathOracle(tree)
        routing = RoutingIndex(tree)
        srcs, flat, starts, ends, counts = [], [], [], [], []
        expected: dict = {}
        for _kind, node, group_ids, sets, values, _tag in plan:
            ids = np.asarray(
                group_ids if group_ids is not None else [0] * len(values),
                dtype=np.int64,
            )
            for index in np.unique(ids):
                count = int((ids == index).sum())
                if count == 0:
                    continue
                dsts = sets[index]
                srcs.append(routing.index_of[node])
                starts.append(len(flat))
                flat.extend(routing.index_of[d] for d in dsts)
                ends.append(len(flat))
                counts.append(count)
                for edge in oracle.steiner_edges(node, dsts):
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
    index-array rounds (tree intersect / equi-join, the components
    return leg) never see a set, and the named front-ends iterate
    theirs only to build index arrays whose order nothing reads."""
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

sim.register_backend("sim", Recording)

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
