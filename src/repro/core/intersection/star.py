"""StarIntersect (Algorithm 1): single-round intersection on a star.

The compute nodes split into ``Vα`` (nodes whose lighter link side is
below ``|R|``) and ``Vβ`` (data-rich nodes).  Every ``Vβ`` node receives
a full copy of the smaller relation ``R`` and joins it against its local
``S`` fragment; everything else is a *weighted* distributed hash join —
each value lands on node ``v`` with probability proportional to the data
``v`` already holds (``N_v`` for ``Vα`` nodes, ``|R_v|`` for ``Vβ``
nodes), which is what keeps each link within its Theorem 1 budget
(Lemma 1: within ``O(log N log |V|)`` of optimal w.h.p.).
"""

from __future__ import annotations

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology
from repro.util.grouping import row_runs, runs_by_target, sorted_unique
from repro.util.hashing import WeightedNodeHasher
from repro.util.seeding import derive_seed

_R_RECV = "intersect.R.recv"
_S_RECV = "intersect.S.recv"


@register_protocol(
    task="set-intersection",
    name="star",
    accepts_seed=True,
    topology="star",
    description="StarIntersect (Algorithm 1) on a symmetric star",
)
def star_intersect(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
) -> ProtocolResult:
    """Run Algorithm 1 and return outputs plus the model cost.

    ``outputs[v]`` is the sorted array of common elements node ``v``
    emitted; their union over nodes is exactly ``R ∩ S``.
    """
    tree.require_symmetric("StarIntersect")
    if not tree.is_star():
        raise ProtocolError(
            f"StarIntersect needs a star topology, got {tree.name!r}; "
            "use tree_intersect for general trees"
        )
    distribution.validate_for(tree)

    # The analysis assumes |R| <= |S|; swap roles internally if needed.
    swapped = distribution.total("R") > distribution.total("S")
    small_tag, large_tag = ("S", "R") if swapped else ("R", "S")

    computes = tree.compute_nodes
    sizes = {
        v: distribution.size(v, small_tag) + distribution.size(v, large_tag)
        for v in computes
    }
    total = sum(sizes.values())
    r_size = distribution.total(small_tag)

    v_alpha = [v for v in computes if min(sizes[v], total - sizes[v]) < r_size]
    v_beta = [v for v in computes if min(sizes[v], total - sizes[v]) >= r_size]
    beta_set = frozenset(v_beta)

    # Pr[h(a) = v] = N_v / N' on Vα and |R_v| / N' on Vβ, where
    # N' = |R| + sum_{v in Vα} |S_v|.
    weights = [
        sizes[v] if v in set(v_alpha) else distribution.size(v, small_tag)
        for v in computes
    ]
    hasher = (
        WeightedNodeHasher(computes, weights, derive_seed(seed, "star-intersect"))
        if sum(weights) > 0
        else None
    )

    cluster = Cluster(tree, distribution)
    # ``computes`` is the cluster's compute order, so the hasher's node
    # indices are the round API's
    in_beta = np.fromiter((v in beta_set for v in computes), bool, len(computes))
    with cluster.round() as ctx:
        # No hasher means every weight is zero: R is empty and every
        # node is in Vβ, so nothing moves.
        if hasher is not None:
            # One run per (owner, hashed node) row; its Steiner
            # destination set is the hashed node plus every data-rich Vβ
            # node (which all receive a full R copy).
            owners, small = cluster.column(small_tag)
            rows = np.column_stack((owners, hasher.assign_indices(small)))
            order, starts, counts = row_runs(rows)
            runs = rows[order[starts]]
            beta = np.flatnonzero(in_beta)
            destinations = np.column_stack(
                (np.broadcast_to(beta, (len(runs), len(beta))), runs[:, 1])
            )
            ctx.exchange_multicast_runs(
                runs[:, 0], destinations, counts, small[order], tag=_R_RECV
            )
            owners, large = cluster.column(large_tag)
            alpha = ~in_beta.take(owners)
            large = large[alpha]
            order, *runs = runs_by_target(
                owners[alpha], hasher.assign_indices(large)
            )
            ctx.exchange_runs(*runs, large[order], tag=_S_RECV)

    outputs: dict = {}
    for v in computes:
        r_received = sorted_unique(cluster.local(v, _R_RECV))
        s_final = cluster.local(v, _S_RECV)
        if v in beta_set:
            s_final = np.concatenate([s_final, cluster.local(v, large_tag)])
        outputs[v] = np.intersect1d(
            r_received, sorted_unique(s_final), assume_unique=True
        )

    return ProtocolResult.from_ledger(
        "star-intersect",
        cluster.ledger,
        outputs=outputs,
        meta={
            "v_alpha": list(v_alpha),
            "v_beta": list(v_beta),
            "swapped_relations": swapped,
            "small_relation_size": r_size,
        },
    )
