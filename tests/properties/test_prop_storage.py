"""Property: the columnar data plane is byte-identical to its oracles.

Random mixed-round scripts (sends, hashed exchanges, multicast groups,
interleaved tags, repeated rounds onto the same columns) must leave
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
    computes = sorted(tree.compute_nodes, key=str)
    rounds = []
    offset = 0  # distinct payload values across ops, so aliasing shows
    for _ in range(draw(st.integers(1, 3))):
        ops = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(
                st.sampled_from(("send", "exchange", "exchange_multicast"))
            )
            src = draw(st.sampled_from(computes))
            size = draw(st.integers(1, 20))
            tag = draw(st.sampled_from(("a", "b")))
            payload = np.arange(offset, offset + size, dtype=np.int64)
            offset += size
            if kind == "send":
                dst = draw(st.sampled_from(computes))
                ops.append(("send", src, dst, payload, tag))
            elif kind == "exchange":
                targets = np.asarray(
                    draw(
                        st.lists(
                            st.integers(0, len(computes) - 1),
                            min_size=size,
                            max_size=size,
                        )
                    ),
                    dtype=np.int64,
                )
                ops.append(("exchange", src, targets, payload, tag))
            else:
                num_sets = draw(st.integers(1, 3))
                sets = [
                    frozenset(
                        draw(
                            st.lists(
                                st.sampled_from(computes),
                                min_size=1,
                                max_size=3,
                            )
                        )
                    )
                    for _ in range(num_sets)
                ]
                group_ids = np.asarray(
                    draw(
                        st.lists(
                            st.integers(0, num_sets - 1),
                            min_size=size,
                            max_size=size,
                        )
                    ),
                    dtype=np.int64,
                )
                ops.append(
                    ("exchange_multicast", src, group_ids, sets, payload, tag)
                )
        rounds.append(ops)
    return tree, rounds


def _replay(cluster, rounds):
    for ops in rounds:
        with cluster.round() as ctx:
            for op in ops:
                if op[0] == "send":
                    _, src, dst, payload, tag = op
                    ctx.send(src, dst, payload, tag=tag)
                elif op[0] == "exchange":
                    _, src, targets, payload, tag = op
                    ctx.exchange(src, targets, payload, tag=tag)
                else:
                    _, src, group_ids, sets, payload, tag = op
                    ctx.exchange_multicast(
                        src, group_ids, sets, payload, tag=tag
                    )
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
