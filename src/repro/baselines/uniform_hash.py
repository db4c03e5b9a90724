"""Uniform-hash intersection: the classic MPC distributed hash join.

Every element of both relations is hashed uniformly at random across all
compute nodes, ignoring topology, bandwidth, and placement — the strategy
every MPC-model algorithm builds on [7, 29].  Single round; on a uniform
star it matches TreeIntersect, but a slow or data-light node receives
``N / |V_C|`` elements regardless of its link, which the benchmarks show
losing by the bandwidth/skew spread.
"""

from __future__ import annotations

from repro.core.intersection.tree import intersect_columns
from repro.data.distribution import Distribution
from repro.queries.aggregate import (
    groupby_hasher,
    hashed_groupby_round,
    require_op,
)
from repro.queries.join import join_columns
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology
from repro.util.grouping import runs_by_target
from repro.util.hashing import WeightedNodeHasher
from repro.util.seeding import derive_seed

_R_RECV = "intersect.R.recv"
_S_RECV = "intersect.S.recv"
_JOIN_R_RECV = "join.R.recv"
_JOIN_S_RECV = "join.S.recv"
_AGG_RECV = "aggregate.recv"


def _uniform_hasher(cluster: Cluster, seed: int, scope: str) -> WeightedNodeHasher:
    computes = cluster.compute_order
    return WeightedNodeHasher(
        computes, [1.0] * len(computes), derive_seed(seed, scope)
    )


def _hash_relations(
    cluster: Cluster,
    hasher: WeightedNodeHasher,
    recv_tags: tuple[str, str],
    key_shift: int = 0,
) -> None:
    """One round: ``R`` and ``S`` hashed over all nodes, each received
    under its tag of ``recv_tags``."""
    with cluster.round() as ctx:
        for tag, recv in zip(("R", "S"), recv_tags):
            owners, values = cluster.column(tag)
            order, *runs = runs_by_target(
                owners, hasher.assign_indices(values >> key_shift)
            )
            ctx.exchange_runs(*runs, values[order], tag=recv)


@register_protocol(
    task="set-intersection",
    name="uniform-hash",
    kind="baseline",
    accepts_seed=True,
    description="Classic MPC uniform-hash join, topology-agnostic",
)
def uniform_hash_intersect(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
) -> ProtocolResult:
    """Hash-join both relations uniformly over all compute nodes."""
    distribution.validate_for(tree)
    cluster = Cluster(tree, distribution)
    _hash_relations(
        cluster,
        _uniform_hasher(cluster, seed, "uniform-hash"),
        (_R_RECV, _S_RECV),
    )
    outputs = intersect_columns(
        cluster.column(_R_RECV), cluster.column(_S_RECV), cluster.compute_order
    )
    return ProtocolResult.from_ledger(
        "uniform-hash-intersect", cluster.ledger, outputs=outputs
    )


@register_protocol(
    task="equijoin",
    name="uniform-hash",
    kind="baseline",
    accepts_seed=True,
    description="Classic MPC hash join on keys, topology-agnostic",
)
def uniform_hash_equijoin(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    materialize: bool = False,
) -> ProtocolResult:
    """Hash both relations uniformly by key; join co-located fragments.

    The MPC-model strategy: every compute node receives ``1/|V_C|`` of
    each relation regardless of its bandwidth or how much data it
    already holds, so on skewed topologies it loses to the
    distribution-aware tree protocol by the bandwidth spread.
    """
    distribution.validate_for(tree)
    cluster = Cluster(tree, distribution)
    _hash_relations(
        cluster,
        _uniform_hasher(cluster, seed, "uniform-join"),
        (_JOIN_R_RECV, _JOIN_S_RECV),
        key_shift=payload_bits,
    )
    outputs = join_columns(
        cluster.column(_JOIN_R_RECV),
        cluster.column(_JOIN_S_RECV),
        cluster.compute_order,
        payload_bits=payload_bits,
        materialize=materialize,
    )
    return ProtocolResult.from_ledger(
        "uniform-hash-equijoin",
        cluster.ledger,
        outputs=outputs,
        meta={"payload_bits": payload_bits},
    )


@register_protocol(
    task="groupby-aggregate",
    name="uniform-hash",
    kind="baseline",
    accepts_seed=True,
    description="Pre-aggregate locally, then hash partials uniformly",
)
def uniform_hash_groupby(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    op: str = "sum",
    seed: int = 0,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    pre_aggregate: bool = True,
) -> ProtocolResult:
    """Group-by with a uniform (topology-agnostic) partial shuffle.

    Same combiner as the tree protocol, but partials are hashed to a
    uniformly random owner instead of a placement-weighted one, so
    data-light nodes behind slow links own as many groups as anyone.
    """
    require_op(op)
    distribution.validate_for(tree)
    cluster = Cluster(tree, distribution)
    outputs = hashed_groupby_round(
        cluster,
        groupby_hasher("uniform-hash", cluster.compute_order, None, seed),
        recv_tag=_AGG_RECV,
        op=op,
        payload_bits=payload_bits,
        pre_aggregate=pre_aggregate,
    )
    return ProtocolResult.from_ledger(
        "uniform-hash-groupby",
        cluster.ledger,
        outputs=outputs,
        meta={
            "op": op,
            "pre_aggregate": pre_aggregate,
            "payload_bits": payload_bits,
        },
    )
