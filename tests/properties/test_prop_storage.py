"""Property: the columnar data plane is byte-identical to its oracles.

Random mixed-round scripts (sends, hashed column exchanges, multicast
groups, interleaved tags, repeated rounds onto the same columns) must leave
*exactly* the same observable state — per-edge ledger loads, per-node
received counts, per-(node, tag) storage bytes — whichever substrate
runs them:

* the simulator (columnar store, vectorized grouping/gather) vs the
  per-send reference model of ``tests/reference_delivery.py``;
* the process backend at 1/2/3 workers vs the simulator.

``assert_clusters_identical`` raises on the first divergence, naming it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import ParallelCluster
from repro.parallel.oracle import assert_clusters_identical
from repro.parallel.pool import get_pool, shutdown_pools
from repro.sim.cluster import Cluster
from tests.reference_delivery import ReferenceCluster
from tests.strategies import tree_topologies


@pytest.fixture(autouse=True, scope="module")
def _shared_pools():
    yield
    shutdown_pools()


@st.composite
def round_scripts(draw):
    """A random tree plus a multi-round mixed transfer script."""
    tree = draw(tree_topologies(min_nodes=3, max_nodes=9))
    node = st.integers(0, len(tree.compute_nodes) - 1)  # a compute-order index
    rounds = []
    offset = 0  # distinct payload values across ops, so aliasing shows
    for _ in range(draw(st.integers(1, 3))):
        ops = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(
                st.sampled_from(("send", "column", "multicast-column"))
            )
            size = draw(st.integers(1, 20))
            tag = draw(st.sampled_from(("a", "b")))
            payload = np.arange(offset, offset + size, dtype=np.int64)
            offset += size
            if kind == "send":
                ops.append(("send", draw(node), draw(node), payload, tag))
            elif kind == "column":
                sources = sorted(draw(st.lists(node, min_size=size, max_size=size)))
                targets = draw(st.lists(node, min_size=size, max_size=size))
                ops.append(("column", sources, targets, payload, tag))
            else:
                num_sets = draw(st.integers(1, 3))
                rows = [
                    draw(st.lists(node, min_size=1, max_size=3))
                    for _ in range(num_sets)
                ]
                destinations = (
                    sum(rows, []),
                    np.cumsum([0, *map(len, rows)]),
                )
                group_sources = [draw(node) for _ in range(num_sets)]
                group_ids = draw(
                    st.lists(
                        st.integers(0, num_sets - 1),
                        min_size=size,
                        max_size=size,
                    )
                )
                ops.append(
                    (
                        "multicast-column",
                        group_sources,
                        group_ids,
                        destinations,
                        payload,
                        tag,
                    )
                )
        rounds.append(ops)
    return tree, rounds


def _replay(cluster, rounds):
    order = cluster.compute_order
    for ops in rounds:
        with cluster.round() as ctx:
            for kind, *args, tag in ops:
                if kind == "send":
                    src, dst, payload = args
                    ctx.send(order[src], order[dst], payload, tag=tag)
                elif kind == "column":
                    ctx.exchange_column(*args, tag=tag)
                else:
                    ctx.exchange_multicast_column(*args, tag=tag)
    return cluster


class TestColumnarByteIdentity:
    @given(script=round_scripts())
    @settings(max_examples=60, deadline=None)
    def test_bulk_matches_per_send(self, script):
        tree, rounds = script
        bulk = _replay(Cluster(tree), rounds)
        per_send = _replay(ReferenceCluster(tree), rounds)
        assert_clusters_identical(
            bulk, per_send, a_name="bulk", b_name="reference"
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @given(script=round_scripts())
    @settings(max_examples=10, deadline=None)
    def test_process_backend_matches_sim(self, workers, script):
        tree, rounds = script
        sim = _replay(Cluster(tree), rounds)
        pool = get_pool(workers, seed=7)
        proc = _replay(ParallelCluster(tree, pool=pool), rounds)
        try:
            assert_clusters_identical(
                proc, sim, a_name="process", b_name="sim"
            )
        finally:
            proc.close()
