"""Gather-everything-to-one-node, for all three tasks.

The simplest correct strategy: one round, one target.  It is provably
optimal whenever some node holds more than half the data (Lemma 7 and
the wTS shortcut) and serves as the sanity baseline everywhere else.
The default target maximizes the data already in place, which minimizes
the gathered volume.
"""

from __future__ import annotations

import numpy as np

from repro.core.cartesian.routing import gather_all_pairs
from repro.data.distribution import Distribution
from repro.queries.aggregate import GroupOutputs, combine_per_key
from repro.queries.join import join_columns
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from repro.registry import register_protocol
from repro.sim.cluster import make_cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import index_dtype, sorted_unique

_RECV = "gather.recv"


def _pick_target(
    tree: TreeTopology, distribution: Distribution, tags: tuple[str, ...]
) -> NodeId:
    return max(
        tree.routing_index.compute_nodes,  # canonical order: ties go to the first
        key=lambda v: sum(distribution.size(v, t) for t in tags),
    )


@register_protocol(
    task="set-intersection",
    name="gather",
    kind="baseline",
    description="Ship both relations to one node; intersect there",
)
def gather_intersect(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    target: NodeId | None = None,
    r_tag: str = "R",
    s_tag: str = "S",
    bits_per_element: int = 64,
) -> ProtocolResult:
    """Ship both relations to one node; intersect there."""
    distribution.validate_for(tree)
    if target is None:
        target = _pick_target(tree, distribution, (r_tag, s_tag))
    cluster = make_cluster(tree, distribution, bits_per_element=bits_per_element)
    with cluster.round() as ctx:
        for node in cluster.compute_order:
            if node == target:
                continue
            for tag in (r_tag, s_tag):
                local = cluster.local(node, tag)
                if len(local):
                    ctx.send(node, target, local, tag=f"{_RECV}.{tag}")
    r_all = np.concatenate(
        [cluster.local(target, r_tag), cluster.local(target, f"{_RECV}.{r_tag}")]
    )
    s_all = np.concatenate(
        [cluster.local(target, s_tag), cluster.local(target, f"{_RECV}.{s_tag}")]
    )
    outputs = {
        v: np.empty(0, np.int64) for v in tree.compute_nodes
    }
    outputs[target] = np.intersect1d(
        sorted_unique(r_all), sorted_unique(s_all), assume_unique=True
    )
    return ProtocolResult.from_ledger(
        "gather-intersect", cluster.ledger, outputs=outputs,
        meta={"target": target},
    )


@register_protocol(
    task="sorting",
    name="gather",
    kind="baseline",
    description="Ship everything to one node; sort there",
)
def gather_sort(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    target: NodeId | None = None,
    tag: str = "R",
    bits_per_element: int = 64,
) -> ProtocolResult:
    """Ship everything to one node; sort there.

    The target alone holding all data is a valid ordering for any
    traversal, so ``meta["order"]`` reports the tree's canonical order.
    """
    distribution.validate_for(tree)
    if target is None:
        target = _pick_target(tree, distribution, (tag,))
    cluster = make_cluster(tree, distribution, bits_per_element=bits_per_element)
    with cluster.round() as ctx:
        for node in cluster.compute_order:
            if node == target:
                continue
            local = cluster.local(node, tag)
            if len(local):
                ctx.send(node, target, local, tag=_RECV)
    merged = np.sort(
        np.concatenate([cluster.local(target, tag), cluster.local(target, _RECV)])
    )
    outputs = {v: np.empty(0, np.int64) for v in tree.compute_nodes}
    outputs[target] = merged
    return ProtocolResult.from_ledger(
        "gather-sort",
        cluster.ledger,
        outputs=outputs,
        meta={"target": target, "order": tree.left_to_right_compute_order()},
    )


@register_protocol(
    task="cartesian-product",
    name="gather",
    kind="baseline",
    description="Ship both relations to one node; enumerate pairs there",
)
def gather_cartesian_product(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    target: NodeId | None = None,
    r_tag: str = "R",
    s_tag: str = "S",
    materialize: bool = False,
    bits_per_element: int = 64,
) -> ProtocolResult:
    """Ship both relations to one node; enumerate all pairs there."""
    distribution.validate_for(tree)
    if target is None:
        target = _pick_target(tree, distribution, (r_tag, s_tag))
    cluster = make_cluster(tree, distribution, bits_per_element=bits_per_element)
    outputs = gather_all_pairs(
        cluster, target, r_tag=r_tag, s_tag=s_tag, materialize=materialize
    )
    return ProtocolResult.from_ledger(
        "gather-cartesian", cluster.ledger, outputs=outputs,
        meta={"target": target},
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
    r_tag: str = "R",
    s_tag: str = "S",
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    materialize: bool = False,
    bits_per_element: int = 64,
) -> ProtocolResult:
    """Ship both encoded relations to one node; join there."""
    distribution.validate_for(tree)
    if target is None:
        target = _pick_target(tree, distribution, (r_tag, s_tag))
    cluster = make_cluster(tree, distribution, bits_per_element=bits_per_element)
    with cluster.round() as ctx:
        for node in cluster.compute_order:
            if node == target:
                continue
            for tag in (r_tag, s_tag):
                local = cluster.local(node, tag)
                if len(local):
                    ctx.send(node, target, local, tag=f"{_RECV}.{tag}")
    r_all = np.concatenate(
        [cluster.local(target, r_tag), cluster.local(target, f"{_RECV}.{r_tag}")]
    )
    s_all = np.concatenate(
        [cluster.local(target, s_tag), cluster.local(target, f"{_RECV}.{s_tag}")]
    )
    # every tuple sits at the target: the relation-wide join, one owner
    owner = cluster.artifacts.compute_position[target]
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
    tag: str = "R",
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    bits_per_element: int = 64,
) -> ProtocolResult:
    """Ship every tuple to one node; aggregate per key there.

    No combiner: the point of the baseline is the cost of centralizing
    raw data, which the pre-aggregated tree protocol avoids.
    """
    distribution.validate_for(tree)
    if target is None:
        target = _pick_target(tree, distribution, (tag,))
    cluster = make_cluster(tree, distribution, bits_per_element=bits_per_element)
    with cluster.round() as ctx:
        for node in cluster.compute_order:
            if node == target:
                continue
            local = cluster.local(node, tag)
            if len(local):
                ctx.send(node, target, local, tag=_RECV)
    gathered = np.concatenate(
        [cluster.local(target, tag), cluster.local(target, _RECV)]
    )
    keys, values = decode_tuples(gathered, payload_bits=payload_bits)
    final_keys, final_values = combine_per_key(keys, values, op)
    computes = cluster.compute_order
    owner = cluster.artifacts.compute_position[target]
    bounds = [0] * (owner + 1) + [len(final_keys)] * (len(computes) - owner)
    outputs = GroupOutputs(computes, bounds, final_keys, final_values)
    return ProtocolResult.from_ledger(
        "gather-groupby",
        cluster.ledger,
        outputs=outputs,
        meta={"target": target, "op": op, "payload_bits": payload_bits},
    )
