"""Property tests for the simulator's accounting identities."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.intersection.tree import tree_intersect
from repro.data.distribution import Distribution
from repro.sim.cluster import Cluster
from tests.strategies import set_pair_instances, tree_topologies
from tests.model.paths import steiner_links


@st.composite
def transfer_plans(draw):
    """A random tree plus a random batch of multicasts."""
    tree = draw(tree_topologies())
    computes = sorted(tree.compute_nodes, key=str)
    num_transfers = draw(st.integers(0, 10))
    transfers = []
    for _ in range(num_transfers):
        src = draw(st.sampled_from(computes))
        dsts = draw(
            st.lists(st.sampled_from(computes), min_size=1, max_size=4)
        )
        size = draw(st.integers(1, 30))
        transfers.append((src, frozenset(dsts), size))
    return tree, transfers


def _multicast_round(tree, transfers) -> Cluster:
    """One round on a fresh cluster: every transfer one run of a single
    ``exchange_multicast_runs`` call."""
    cluster = Cluster(tree)
    position = tree.compute_position
    rows = [sorted(position[v] for v in dsts) for _, dsts, _ in transfers]
    sizes = np.array([size for *_, size in transfers], dtype=np.intp)
    with cluster.round() as ctx:
        ctx.exchange_multicast_runs(
            [position[src] for src, _, _ in transfers],
            (sum(rows, []), np.cumsum([0, *map(len, rows)])),
            sizes,
            np.concatenate([np.arange(size) for size in sizes] or [[]]),
            tag="x",
        )
    return cluster


class TestLedgerIdentities:
    @given(plan=transfer_plans())
    @settings(max_examples=80, deadline=None)
    def test_round_cost_is_bottleneck(self, plan):
        tree, transfers = plan
        cluster = _multicast_round(tree, transfers)
        loads = cluster.ledger.round_loads(0)
        expected = max(
            (count / tree.bandwidth(*edge) for edge, count in loads.items()),
            default=0.0,
        )
        assert cluster.ledger.round_cost(0) == expected

    @given(plan=transfer_plans())
    @settings(max_examples=80, deadline=None)
    def test_edge_loads_match_steiner_union(self, plan):
        tree, transfers = plan
        cluster = _multicast_round(tree, transfers)
        expected: dict = {}
        for src, dsts, size in transfers:
            for edge in steiner_links(tree, src, dsts):
                expected[edge] = expected.get(edge, 0) + size
        assert cluster.ledger.round_loads(0) == expected

    @given(plan=transfer_plans())
    @settings(max_examples=60, deadline=None)
    def test_deliveries_complete_and_exact(self, plan):
        tree, transfers = plan
        cluster = _multicast_round(tree, transfers)
        expected_per_node: dict = {}
        for _, dsts, size in transfers:
            for dst in dsts:
                expected_per_node[dst] = expected_per_node.get(dst, 0) + size
        for node in tree.compute_nodes:
            assert cluster.local_size(node, "x") == expected_per_node.get(
                node, 0
            )


class TestNormalizationEquivalence:
    @given(instance=set_pair_instances(min_nodes=4, max_nodes=9))
    @settings(max_examples=40, deadline=None)
    def test_intersection_answer_survives_normalization(self, instance):
        from repro.topology.normalize import normalize

        tree, dist = instance
        expected = set(
            np.intersect1d(dist.relation("R"), dist.relation("S")).tolist()
        )
        normalized = normalize(tree, virtual_bandwidth="sum")
        remapped = Distribution(
            {
                normalized.node_map.get(n, n): {t: dist.fragment(n, t) for t in dist.tags}
                for n in dist.node_order
            }
        )
        result = tree_intersect(normalized.tree, remapped, seed=5)
        found: set = set()
        for values in result.outputs.values():
            found |= set(values.tolist())
        assert found == expected
