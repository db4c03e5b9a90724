"""Property: the columnar data plane is byte-identical to its oracles.

Random mixed-round scripts (runs, hashed column exchanges cut into runs,
multicast runs, interleaved tags, repeated rounds onto the same
columns) must leave
*exactly* the same observable state — per-edge ledger loads, per-node
received counts, per-(node, tag) storage bytes — on the simulator
(columnar store, vectorized grouping/gather) as in the transfer-by-
transfer Section-2 model of ``tests/model/rounds.py``.

``assert_matches_model`` raises on the first divergent part, naming it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.cluster import Cluster
from tests.cluster_identity import assert_matches_model
from tests.model.rounds import ModelCluster
from tests.obs.shuffle import hash_partition
from tests.strategies import tree_topologies


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
            kind = draw(st.sampled_from(("runs", "column", "multicast-runs")))
            size = draw(st.integers(1, 20))
            tag = draw(st.sampled_from(("a", "b")))
            payload = np.arange(offset, offset + size, dtype=np.int64)
            offset += size
            if kind == "runs":
                cuts = sorted(draw(st.lists(st.integers(0, size), max_size=3)))
                counts = np.diff([0, *cuts, size])
                ends = [[draw(node) for _ in counts] for _ in range(2)]
                ops.append(("runs", *ends, counts, payload, tag))
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
                sources = [draw(node) for _ in range(num_sets)]
                cuts = sorted(
                    draw(
                        st.lists(
                            st.integers(0, size),
                            min_size=num_sets - 1,
                            max_size=num_sets - 1,
                        )
                    )
                )
                counts = np.diff([0, *cuts, size])
                ops.append(
                    ("multicast-runs", sources, destinations, counts, payload, tag)
                )
        rounds.append(ops)
    return tree, rounds


def _replay(cluster, rounds):
    for ops in rounds:
        with cluster.round() as ctx:
            for kind, *args, tag in ops:
                if kind == "runs":
                    ctx.exchange_runs(*args, tag=tag)
                elif kind == "column":
                    hash_partition(ctx, *args, tag=tag)
                else:
                    ctx.exchange_multicast_runs(*args, tag=tag)
    return cluster


class TestColumnarByteIdentity:
    @given(script=round_scripts())
    @settings(max_examples=60, deadline=None)
    def test_bulk_matches_the_model(self, script):
        tree, rounds = script
        assert_matches_model(
            _replay(Cluster(tree), rounds), _replay(ModelCluster(tree), rounds)
        )
