"""Distribution-aware group-by aggregation on symmetric trees.

Aggregation is the task prior topology-aware work studied on stars
(Liu et al. [37], LOOM [16, 17]); here it runs on any symmetric tree
with the same placement-weighted machinery as the paper's tasks:

1. **local pre-aggregation** — each node combines its tuples per key,
   so at most one partial per (node, key) ever travels (the classic
   combiner optimization, free in the model's computation phase);
2. **weighted shuffle** — each key's partials are hashed to an owner
   chosen with probability proportional to the data each node holds, so
   data-rich, well-connected nodes own more groups;
3. **final combine** at the owner.

Supported operations: ``sum``, ``count``, ``min``, ``max``; every
registered group-by protocol rejects any other ``op`` through
:func:`require_op` before its first round.  The tree
protocol is a single round; disabling pre-aggregation (the ablation)
shows the combiner's effect on the model cost.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.common import LowerBound
from repro.data.columns import KeyValueArrays, NodeOutputs
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples, encode_tuples
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology
from repro.util.grouping import owner_bounds, runs_by_target, sorted_runs
from repro.util.hashing import WeightedNodeHasher
from repro.util.seeding import derive_seed

_RECV = "aggregate.recv"

_REDUCERS: dict[str, Callable] = {
    "sum": np.add.reduceat,
    "count": None,  # handled specially
    "min": np.minimum.reduceat,
    "max": np.maximum.reduceat,
}


class GroupOutputs(NodeOutputs):
    """Per-node group-by results over the whole relation's arrays.

    Node ``nodes[i]`` owns the groups ``[bounds[i], bounds[i + 1])`` of
    ``keys_array`` / ``values_array`` (keys ascending within a node);
    ``outputs[node]`` is its :class:`KeyValueArrays`, built on demand.
    """

    def __init__(
        self, nodes, bounds: list, keys: np.ndarray, values: np.ndarray
    ) -> None:
        super().__init__(nodes)
        self.bounds = bounds
        self.keys_array = keys
        self.values_array = values

    def _item(self, index: int) -> KeyValueArrays:
        lo, hi = self.bounds[index : index + 2]
        return KeyValueArrays(self.keys_array[lo:hi], self.values_array[lo:hi])

    @classmethod
    def of(cls, outputs) -> "GroupOutputs":
        """``outputs`` as one :class:`GroupOutputs`: what the registered
        group-by protocols return; a plain ``{node: groups}`` is
        converted here, once."""
        if isinstance(outputs, GroupOutputs):
            return outputs
        nodes = tuple(outputs)
        owned = [KeyValueArrays.from_dict(outputs.get(v) or {}) for v in nodes]
        return cls(
            nodes,
            np.cumsum([0, *map(len, owned)]).tolist(),
            np.concatenate([np.empty(0, np.int64), *(g.keys_array for g in owned)]),
            np.concatenate([np.empty(0, np.int64), *(g.values_array for g in owned)]),
        )


def combine_per_node_key(
    owners: np.ndarray, keys: np.ndarray, values: np.ndarray, op: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate ``values`` per distinct ``(node, key)`` pair.

    ``owners`` holds each tuple's node index (a :meth:`Cluster.column
    <repro.sim.cluster.Cluster.column>`); returns parallel
    ``(owners, keys, values)`` columns with one row per pair, sorted by
    node, then key — every node's combiner in one segmented pass.
    """
    order, starts, lengths = sorted_runs(owners, keys)
    first = order[starts]
    if op == "count":
        combined = lengths.astype(np.int64)
    else:
        combined = _REDUCERS[op](values[order], starts)
    return owners[first], keys[first], combined


def combine_per_key(
    keys: np.ndarray, values: np.ndarray, op: str
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate ``values`` per distinct key; returns sorted unique keys.

    The one-node case of :func:`combine_per_node_key`.
    """
    return combine_per_node_key(
        np.zeros(len(keys), np.int16), keys, values, op
    )[1:]


def require_op(op: str) -> None:
    """Reject an ``op`` no reducer implements."""
    if op not in _REDUCERS:
        raise ProtocolError(
            f"unsupported op {op!r}; choose from {sorted(_REDUCERS)}"
        )


def groupby_hasher(
    protocol: str, computes: tuple, sizes: np.ndarray | None, seed: int
) -> WeightedNodeHasher:
    """The owner hash of the registered group-by ``protocol``.

    ``tree`` picks each key's owner among ``computes`` with probability
    proportional to the tuples the node holds (``sizes``, in the same
    order); the ``uniform-hash`` baseline weighs every node alike and
    reads no sizes.
    """
    if protocol == "uniform-hash":
        return WeightedNodeHasher(
            computes, [1.0] * len(computes), derive_seed(seed, "uniform-groupby")
        )
    return WeightedNodeHasher(computes, sizes, derive_seed(seed, "groupby"))


def shuffle_layout(
    owners: np.ndarray, keys: np.ndarray, hasher: WeightedNodeHasher
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The layout half of a hashed group-by round: where every tuple goes.

    Tuple ``i`` is held by compute node ``owners[i]`` and travels to
    the owner ``hasher`` picks for ``keys[i]``; the tuples are cut into
    runs by :func:`~repro.util.grouping.runs_by_target`, so the result
    is ``(order, run_sources, run_targets, counts)``.  It reads keys and
    holders only: a driver whose rounds ship the same keys from the
    same holders (the hash-to-min supersteps of
    :mod:`repro.graphs.components`) lays out once and ships many
    payloads along it.
    """
    return runs_by_target(owners, hasher.assign_indices(keys))


def shuffle_round(
    cluster: Cluster, layout: tuple, payload: np.ndarray, *, recv_tag: str
) -> tuple[np.ndarray, np.ndarray]:
    """The round half: ship ``payload`` along ``layout`` in one round.

    ``layout`` is :func:`shuffle_layout`'s, over the tuples ``payload``
    holds in the same order.  The nodes hold that input as relation
    ``R`` while the round runs; the round consumes it and what arrives
    under ``recv_tag``, and returns the arrivals as
    :meth:`Cluster.column <repro.sim.cluster.Cluster.column>` does:
    ``(owners, received)``, ascending by owner, each owner's in run
    order.
    """
    order, *runs = layout
    with cluster.round() as ctx:
        ctx.exchange_runs(*runs, payload[order], tag=recv_tag)
    cluster.take_column("R")
    return cluster.take_column(recv_tag)


def hashed_groupby_round(
    cluster: Cluster,
    hasher: WeightedNodeHasher,
    *,
    recv_tag: str,
    op: str,
    payload_bits: int,
    pre_aggregate: bool,
) -> GroupOutputs:
    """Combine, shuffle by ``hasher`` and finalize: one group-by round.

    Shared by the tree protocol and the uniform-hash baseline, which
    differ only in the hash (:func:`groupby_hasher`): the two kernel
    halves in sequence, :func:`shuffle_layout` over what relation ``R``
    holds, then :func:`shuffle_round`.  With ``pre_aggregate`` every
    node ships one partial per key (``count`` partials are counts, so
    the owners finalize them by ``sum``); without it raw tuples travel
    and finalize under ``op``.  The round consumes relation ``R`` and
    what arrives under ``recv_tag``, so a driver can run one per step
    on the same cluster.  Returns the per-node
    :class:`~repro.data.columns.KeyValueArrays` outputs as one
    :class:`GroupOutputs`.
    """
    owners, payload = cluster.column("R")
    keys, values = decode_tuples(payload, payload_bits=payload_bits)
    if pre_aggregate:
        owners, keys, values = combine_per_node_key(owners, keys, values, op)
        payload = encode_tuples(keys, values, payload_bits=payload_bits)
    owners, received = shuffle_round(
        cluster, shuffle_layout(owners, keys, hasher), payload, recv_tag=recv_tag
    )
    keys, values = decode_tuples(received, payload_bits=payload_bits)
    owners, keys, values = combine_per_node_key(
        owners, keys, values, "sum" if pre_aggregate and op == "count" else op
    )
    computes = cluster.compute_order
    # columnar output contract: the aggregation arrays go out as-is
    # (a Mapping-compatible view, no per-key boxing)
    return GroupOutputs(
        computes, owner_bounds(owners, len(computes)), keys, values
    )


def groupby_column_bound(
    tree: TreeTopology, sizes: np.ndarray, keys: np.ndarray
) -> LowerBound:
    """:func:`groupby_lower_bound` over one column of keys: the first
    ``sizes[0]`` keys held by ``tree.compute_nodes[0]``, the next
    ``sizes[1]`` by the next compute node, and so on."""
    return LowerBound.from_shared_keys(
        tree,
        np.repeat(tree.routing_index.compute_idx, sizes),
        keys,
        "per-link shared-key counting (group-by)",
    )


def groupby_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
) -> LowerBound:
    """A per-link lower bound for group-by aggregation.

    Any correct protocol assembles each key's aggregate at a single
    node.  Fix a link ``e`` and a key ``k`` with input tuples on both
    sides of ``e``: whichever side ends up owning ``k``, at least one
    element about ``k`` (a tuple, a partial, or the final aggregate)
    must cross ``e``, because the owning side's aggregate depends on
    data only the other side holds.  Distinct keys contribute
    independently — but the link is full-duplex, and the algorithm
    chooses per key *which* side owns it, splitting the forced
    crossings between the two directed channels; only the heavier
    direction shows up in the round cost, so

        cost(e) >= |keys(V-e) ∩ keys(V+e)| / (2 w_e)

    and the bound is the maximum over links.  This is the group-by
    analogue of Theorem 1's per-link counting argument, expressed in
    element units like every other bound in the package.  (The
    distribution-aware degree workload in :mod:`repro.graphs.degrees`
    actually achieves less than ``|shared| / w_e`` on skewed
    placements, which is what forces the factor 2.)
    """
    tree.require_symmetric("the group-by lower bound")
    distribution.validate_for(tree)
    keys, _ = decode_tuples(distribution.column("R")[0], payload_bits=payload_bits)
    return groupby_column_bound(
        tree, distribution.sizes_over(tree.compute_nodes, "R"), keys
    )


@register_protocol(
    task="groupby-aggregate",
    name="tree",
    accepts_seed=True,
    description="Per-key aggregation of encoded tuples across the tree",
)
def tree_groupby_aggregate(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    op: str = "sum",
    seed: int = 0,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    pre_aggregate: bool = True,
) -> ProtocolResult:
    """Aggregate encoded (key, value) tuples per key across the tree.

    ``outputs[v]`` maps each key owned by node ``v`` to its aggregate.
    ``pre_aggregate=False`` ships raw tuples instead of per-node
    partials (the ablation).  Note ``sum``/``count`` partials must fit
    the payload width; choose ``payload_bits`` accordingly.
    """
    require_op(op)
    tree.require_symmetric("tree_groupby_aggregate")
    distribution.validate_for(tree)

    cluster = Cluster(tree, distribution)
    computes = cluster.compute_order
    sizes = distribution.sizes_over(computes, "R")
    if not sizes.any():
        return ProtocolResult.from_ledger(
            "tree-groupby", cluster.ledger,
            outputs={v: KeyValueArrays.empty() for v in computes},
            meta={"op": op, "payload_bits": payload_bits},
        )

    outputs = hashed_groupby_round(
        cluster,
        groupby_hasher("tree", computes, sizes, seed),
        recv_tag=_RECV,
        op=op,
        payload_bits=payload_bits,
        pre_aggregate=pre_aggregate,
    )
    return ProtocolResult.from_ledger(
        "tree-groupby",
        cluster.ledger,
        outputs=outputs,
        meta={
            "op": op,
            "pre_aggregate": pre_aggregate,
            "payload_bits": payload_bits,
        },
    )
