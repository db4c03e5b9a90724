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

from repro.core.intersection.partition import (
    EdgeClassification,
    classify_edges,
    partition_blocks,
)
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology
from repro.util.grouping import (
    full_width_runs,
    index_dtype,
    owner_bounds,
    packed_words,
    row_runs,
    runs_by_target,
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
) -> tuple[Cluster, list[frozenset], EdgeClassification, int]:
    """The one round of Algorithm 2, a relation at a time.

    Shared by TreeIntersect and the tree equi-join: block ``i`` of the
    balanced partition gets a weighted hash ``h_i`` over its members
    (keyed by ``derive_seed(seed, seed_scope, i)``, evaluated on
    ``element >> key_shift``); the small relation is replicated to one
    hashed owner per block — rows ``[source, owner_1 ... owner_k]``,
    one multicast run per distinct row, cut by one sort
    (:func:`~repro.util.grouping.row_runs`) — and the large relation is
    hashed within the block of the node holding it.  Returns the
    cluster after the round, the blocks, the α/β classification of the
    links and the small relation's size; the classification is made
    once, also when ``blocks`` is given, because TreeIntersect's meta
    reports it.
    """
    computes = tree.compute_nodes
    size_vector = distribution.sizes_over(computes, small_tag, large_tag)
    sizes = dict(zip(computes, size_vector.tolist()))
    r_size = distribution.total(small_tag)
    classification = classify_edges(tree, sizes, r_size)
    if blocks is None:
        blocks = partition_blocks(tree, sizes, r_size, classification)
    blocks = [frozenset(b) for b in blocks]

    # per block holding data: its members' compute-order indices and h_i
    routes: list[tuple[np.ndarray, WeightedNodeHasher]] = []
    position = tree.compute_position
    for i, block in enumerate(blocks):
        members = np.sort(np.fromiter(map(position.__getitem__, block), np.intp))
        if members.size and members[0] < 0:  # a router's entry
            raise ProtocolError(f"block {i} holds a node that does not compute")
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
            rows[:, slot] = members.take(hasher.assign_indices(keys))
        order, starts, counts = row_runs(rows)
        runs = rows[order[starts]]
        ctx.exchange_multicast_runs(
            runs[:, 0], runs[:, 1:], counts, small[order], tag=small_recv
        )
        owners, large = cluster.column(large_tag)
        keys = large >> key_shift
        # the route of every element's holder, by one node -> route
        # lookup; a node outside every block keeps target -1, which the
        # registration rejects
        route_of = np.full(len(computes), -1, dtype=index_dtype(len(routes)))
        for slot, (members, _) in enumerate(routes):
            route_of[members] = slot
        routed = route_of.take(owners)  # owners come narrow: no widening
        targets = np.full(len(large), -1, dtype=owners.dtype)
        for slot, (members, hasher) in enumerate(routes):
            held = routed == slot
            targets[held] = members.take(hasher.assign_indices(keys[held]))
        order, *runs = runs_by_target(owners, targets)
        ctx.exchange_runs(*runs, large[order], tag=large_recv)
    return cluster, blocks, classification, r_size


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

    When the pairs fit :func:`~repro.util.grouping.packed_words` with
    one bit to spare, that bit is the side (``R`` 0, ``S`` 1) and the
    sort needs no positions: after one ``np.sort`` of the words, a pair
    ``h`` is common exactly when a word ``2h`` is followed by ``2h + 1``,
    and the values come back out of the words.  When the side bit does
    not fit, position bits cannot either (two or more elements need at
    least one), so the fallback is the full-width sort, with no second
    packing attempt.
    """
    owners = np.concatenate((r_column[0], s_column[0]))
    values = np.concatenate((r_column[1], s_column[1]))
    packed = packed_words((owners, values), 1)
    if packed is None:
        order, starts, lengths = full_width_runs(owners, values)
        from_s = np.add.reduceat(order >= len(r_column[0]), starts, dtype=np.intp)
        common = (from_s > 0) & (from_s < lengths)
        first = order[starts[common]]
        bounds = owner_bounds(owners[first], len(nodes))
        found = values[first]
    else:
        words, (owner_lo, value_lo), (_, width) = packed
        words[len(r_column[0]) :] |= 1
        words.sort()
        last_r = np.flatnonzero(np.diff(words) == 1)
        pairs = words[last_r[(words[last_r] & 1) == 0]] >> 1
        bounds = owner_bounds((pairs >> width) + owner_lo, len(nodes))
        pairs &= (1 << width) - 1
        pairs += value_lo
        found = pairs.astype(values.dtype, copy=False)
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

    swapped = distribution.total("R") > distribution.total("S")
    small_tag, large_tag = ("S", "R") if swapped else ("R", "S")
    cluster, blocks, classification, r_size = hashed_partition_round(
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
