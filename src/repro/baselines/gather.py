"""Gather-everything-to-one-node, for the equi-join and the group-by.

The simplest correct strategy: one round, one target.  It is the
planner's centralizing strategy (``optimize(..., strategy="gather")``)
and the sanity baseline its optimized plans are held to.  The default
target maximizes the data already in place, which minimizes the
gathered volume.
"""

from __future__ import annotations

import numpy as np

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.queries.aggregate import GroupOutputs, combine_per_key, require_op
from repro.queries.join import join_columns
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from repro.registry import register_protocol
from repro.sim.cluster import Cluster, RoundContext
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import index_dtype

_RECV = "gather.recv"


def gather_relation(
    ctx: RoundContext,
    computes: tuple,
    distribution: Distribution,
    tag: str,
    target: int,
    *,
    recv_tag: str,
) -> None:
    """Register the gather of relation ``tag`` to ``computes[target]`` as
    one :meth:`RoundContext.exchange_runs`: one run per other node of
    the compute order ``computes``, its whole fragment, in that order.
    The target's own fragment stays where it is."""
    sizes = distribution.sizes_over(computes, tag)
    values = distribution.column(tag)[0]  # laid out in compute order
    lo = int(sizes[:target].sum())
    others = np.delete(np.arange(len(computes)), target)
    ctx.exchange_runs(
        others,
        np.full(len(others), target),
        sizes[others],
        np.concatenate((values[:lo], values[lo + sizes[target] :])),
        tag=recv_tag,
    )


def target_position(tree: TreeTopology, target: NodeId) -> int:
    """``target``'s index in ``tree.compute_nodes``; a router or a node
    outside the tree cannot be gathered to."""
    if not tree.is_compute_node(target):
        raise ProtocolError(
            f"gather target {target!r} is not a compute node of {tree.name}"
        )
    return tree.compute_position[target]


def _pick_target(
    tree: TreeTopology, distribution: Distribution, tags: tuple[str, ...]
) -> NodeId:
    return max(
        tree.compute_nodes,  # canonical order: ties go to the first
        key=lambda v: sum(distribution.size(v, t) for t in tags),
    )


@register_protocol(
    task="equijoin",
    name="gather",
    kind="baseline",
    description="Ship both relations to one node; join there",
)
def gather_equijoin(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    target: NodeId | None = None,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    materialize: bool = False,
) -> ProtocolResult:
    """Ship both encoded relations to one node; join there."""
    distribution.validate_for(tree)
    if target is None:
        target = _pick_target(tree, distribution, ("R", "S"))
    cluster = Cluster(tree, distribution)
    owner = target_position(tree, target)
    with cluster.round() as ctx:
        for tag in ("R", "S"):
            gather_relation(
                ctx,
                cluster.compute_order,
                distribution,
                tag,
                owner,
                recv_tag=f"{_RECV}.{tag}",
            )
    r_all = np.concatenate(
        [cluster.local(target, "R"), cluster.local(target, f"{_RECV}.R")]
    )
    s_all = np.concatenate(
        [cluster.local(target, "S"), cluster.local(target, f"{_RECV}.S")]
    )
    # every tuple sits at the target: the relation-wide join, one owner
    dtype = index_dtype(len(cluster.compute_order))
    outputs = join_columns(
        (np.full(len(r_all), owner, dtype), r_all),
        (np.full(len(s_all), owner, dtype), s_all),
        cluster.compute_order,
        payload_bits=payload_bits,
        materialize=materialize,
    )
    return ProtocolResult.from_ledger(
        "gather-equijoin",
        cluster.ledger,
        outputs=outputs,
        meta={"target": target, "payload_bits": payload_bits},
    )


@register_protocol(
    task="groupby-aggregate",
    name="gather",
    kind="baseline",
    description="Ship all tuples to one node; aggregate there",
)
def gather_groupby(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    op: str = "sum",
    target: NodeId | None = None,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
) -> ProtocolResult:
    """Ship every tuple to one node; aggregate per key there.

    No combiner: the point of the baseline is the cost of centralizing
    raw data, which the pre-aggregated tree protocol avoids.
    """
    require_op(op)
    distribution.validate_for(tree)
    if target is None:
        target = _pick_target(tree, distribution, ("R",))
    cluster = Cluster(tree, distribution)
    owner = target_position(tree, target)
    with cluster.round() as ctx:
        gather_relation(
            ctx, cluster.compute_order, distribution, "R", owner, recv_tag=_RECV
        )
    gathered = np.concatenate(
        [cluster.local(target, "R"), cluster.local(target, _RECV)]
    )
    keys, values = decode_tuples(gathered, payload_bits=payload_bits)
    final_keys, final_values = combine_per_key(keys, values, op)
    computes = cluster.compute_order
    bounds = [0] * (owner + 1) + [len(final_keys)] * (len(computes) - owner)
    outputs = GroupOutputs(computes, bounds, final_keys, final_values)
    return ProtocolResult.from_ledger(
        "gather-groupby",
        cluster.ledger,
        outputs=outputs,
        meta={"target": target, "op": op, "payload_bits": payload_bits},
    )
