"""TreeIntersect (Algorithm 2): single-round intersection on any tree.

Given a balanced partition ``{V¹_C, ..., V^k_C}`` (Algorithm 3), block
``i`` gets its own weighted hash function ``h_i`` over its members
(probability ``N_v / sum_u N_u``).  Every ``R``-tuple is hashed into
*every* block — replication that multicast routing carries across each
link at most once — while every ``S``-tuple is hashed only within the
block of the node holding it.  Each node then intersects what it
received; block ``i`` jointly computes ``R ∩ (S restricted to block i)``
and the union over blocks is ``R ∩ S`` (Theorem 2: within
``O(log N log |V|)`` of the Theorem 1 bound w.h.p.).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.intersection.partition import balanced_partition, classify_edges
from repro.data.distribution import Distribution
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology
from repro.util.grouping import (
    owner_bounds,
    runs_by_target,
    sorted_runs,
    unique_rows,
)
from repro.util.hashing import WeightedNodeHasher
from repro.util.seeding import derive_seed

_R_RECV = "intersect.R.recv"
_S_RECV = "intersect.S.recv"


def hashed_partition_round(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    small_tag: str,
    large_tag: str,
    small_recv: str,
    large_recv: str,
    blocks: Sequence[frozenset] | None,
    seed: int,
    seed_scope: str,
    key_shift: int = 0,
) -> tuple[Cluster, list[frozenset], dict, int]:
    """The one round of Algorithm 2, a relation at a time.

    Shared by TreeIntersect and the tree equi-join: block ``i`` of the
    balanced partition gets a weighted hash ``h_i`` over its members
    (keyed by ``derive_seed(seed, seed_scope, i)``, evaluated on
    ``element >> key_shift``); the small relation is replicated to one
    hashed owner per block — rows ``[source, owner_1 ... owner_k]``,
    one multicast group per distinct row — and the large relation is
    hashed within the block of the node holding it.  Returns the
    cluster after the round with the blocks, per-node sizes and the
    small relation's size the partition was computed from.
    """
    computes = tree.routing_index.compute_nodes
    node_index = dict(zip(computes, range(len(computes))))
    size_vector = distribution.sizes_over(computes, small_tag, large_tag)
    sizes = dict(zip(computes, size_vector.tolist()))
    r_size = distribution.total(small_tag)
    if blocks is None:
        blocks = balanced_partition(tree, sizes, r_size)
    blocks = [frozenset(b) for b in blocks]

    # per block holding data: its members' compute-order indices and h_i
    routes: list[tuple[np.ndarray, WeightedNodeHasher]] = []
    for i, block in enumerate(blocks):
        members = np.sort(np.fromiter(map(node_index.__getitem__, block), np.intp))
        weights = size_vector[members]
        if weights.sum() > 0:
            names = [computes[m] for m in members.tolist()]
            hasher = WeightedNodeHasher(names, weights, derive_seed(seed, seed_scope, i))
            routes.append((members, hasher))

    cluster = Cluster(tree, distribution)
    with cluster.round() as ctx:
        owners, small = cluster.column(small_tag)
        keys = small >> key_shift
        rows = np.empty((len(small), 1 + len(routes)), dtype=owners.dtype)
        rows[:, 0] = owners
        for slot, (members, hasher) in enumerate(routes, start=1):
            rows[:, slot] = members[hasher.assign_indices(keys)]
        groups, group_ids = unique_rows(rows)
        ctx.exchange_multicast_column(
            groups[:, 0], group_ids, groups[:, 1:], small, tag=small_recv
        )
        owners, large = cluster.column(large_tag)
        keys = large >> key_shift
        # a node outside every block keeps target -1, which the
        # registration rejects
        targets = np.full(len(large), -1, dtype=owners.dtype)
        for members, hasher in routes:
            held = np.isin(owners, members)
            targets[held] = members[hasher.assign_indices(keys[held])]
        order, *runs = runs_by_target(owners, targets)
        ctx.exchange_runs(*runs, large[order], tag=large_recv)
    return cluster, blocks, sizes, r_size


def intersect_columns(
    r_column: tuple[np.ndarray, np.ndarray],
    s_column: tuple[np.ndarray, np.ndarray],
    nodes: Sequence,
) -> dict:
    """``np.intersect1d`` per node, over two whole columns at once.

    Each side is a :meth:`Cluster.column <repro.sim.cluster.Cluster.column>`
    pair over ``nodes``; the result maps every node to the sorted array
    of distinct values it holds on both sides.  Both columns are sorted
    together within the node order, and a run of equal ``(node, value)``
    pairs is common exactly when it draws from both sides.
    """
    owners = np.concatenate((r_column[0], s_column[0]))
    values = np.concatenate((r_column[1], s_column[1]))
    order, starts, lengths = sorted_runs(owners, values)
    from_s = np.add.reduceat(order >= len(r_column[0]), starts, dtype=np.intp)
    common = (from_s > 0) & (from_s < lengths)
    first = order[starts[common]]
    bounds = owner_bounds(owners[first], len(nodes))
    found = values[first]
    return {
        node: found[lo:hi] for node, lo, hi in zip(nodes, bounds, bounds[1:])
    }


@register_protocol(
    task="set-intersection",
    name="tree",
    accepts_seed=True,
    description="TreeIntersect (Algorithm 2) on any symmetric tree",
)
def tree_intersect(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
    r_tag: str = "R",
    s_tag: str = "S",
    blocks: Sequence[frozenset] | None = None,
) -> ProtocolResult:
    """Run Algorithm 2 and return outputs plus the model cost.

    ``blocks`` overrides the balanced partition (used by ablations: pass
    ``[tree.compute_nodes]`` to disable partitioning).  ``outputs[v]`` is
    the sorted array of common elements node ``v`` emitted; the union
    over nodes is exactly ``R ∩ S``.
    """
    tree.require_symmetric("TreeIntersect")
    distribution.validate_for(tree)

    swapped = distribution.total(r_tag) > distribution.total(s_tag)
    small_tag, large_tag = (s_tag, r_tag) if swapped else (r_tag, s_tag)
    cluster, blocks, sizes, r_size = hashed_partition_round(
        tree,
        distribution,
        small_tag=small_tag,
        large_tag=large_tag,
        small_recv=_R_RECV,
        large_recv=_S_RECV,
        blocks=blocks,
        seed=seed,
        seed_scope="tree-intersect",
    )
    outputs = intersect_columns(
        cluster.column(_R_RECV), cluster.column(_S_RECV), cluster.compute_order
    )

    classification = classify_edges(tree, sizes, r_size)
    return ProtocolResult.from_ledger(
        "tree-intersect",
        cluster.ledger,
        outputs=outputs,
        meta={
            "blocks": [sorted(map(str, b)) for b in blocks],
            "num_blocks": len(blocks),
            "num_alpha_edges": classification.num_alpha,
            "num_beta_edges": classification.num_beta,
            "swapped_relations": swapped,
            "small_relation_size": r_size,
        },
    )
