"""Triangle counting compiled as two equi-join stages through the planner.

A triangle ``x < y < z`` is one result row of the cyclic self-join

    E1(a, b) ⋈ E2(b, c) ⋈ E3(a, c)

over three renamings of the *oriented* edge relation (every edge stored
as ``a < b``), so counting triangles is exactly the kind of
multi-relation query the ``plan/`` subsystem compiles: two equi-join
shuffle stages (the second with the ``a = a``/``c = c`` residual),
each dispatched to a registered ``equijoin`` protocol.  The flavours
choose the per-stage protocol:

* ``optimized`` — the optimizer's join order and per-stage protocol
  choice;
* ``uniform-hash`` — the same order with the MPC hash-join baseline;
* ``gather`` — the planner's gather-everything strategy.

The compiled pipeline reports per-stage rows; the registered protocol
summarizes them into one :class:`~repro.sim.protocol.ProtocolResult`
(the stage rows ride along in ``meta["supersteps"]``, and the
result's ledger is empty — cost/rounds are the authoritative totals,
exactly as in :class:`~repro.report.PlanReport`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.common import LowerBound, column_holders
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.graphs.iterate import _run_graph_task
from repro.graphs.model import (
    DEFAULT_EDGE_TAG,
    VERTEX_BITS,
    PlacedGraph,
    canonical_edges,
    decode_edges,
)
from repro.registry import register_protocol, register_task
from repro.report import GraphRunReport
from repro.sim.ledger import CostLedger
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology


# --------------------------------------------------------------------- #
# lower bound + verification
# --------------------------------------------------------------------- #


def triangles_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
) -> LowerBound:
    """A per-link counting lower bound for triangle counting.

    Fix a link ``e`` and a vertex ``v`` with incident edges on both
    sides of ``e``.  The number of triangles through ``v`` depends on
    pairs of ``v``-edges from opposite sides, so whichever side
    accounts for ``v``'s triangles must learn at least one element
    about ``v`` from the other side.  A single crossing edge element
    ``(u, w)`` carries information about exactly its two endpoints,
    hence

        cost(e) >= |{v : v has incident edges on both sides}| / (2 w_e)

    — the triangle analogue of the group-by shared-key bound, with the
    factor 2 because one edge element covers two vertices.
    """
    tree.require_symmetric("the triangle-count lower bound")
    return LowerBound.from_shared_keys(
        tree,
        np.tile(column_holders(tree, distribution, DEFAULT_EDGE_TAG), 2),
        np.concatenate(decode_edges(distribution.column(DEFAULT_EDGE_TAG)[0])),
        "per-link shared-vertex counting (triangles)",
    )


def _triangle_count(canonical: np.ndarray) -> int:
    """Triangles of a simple graph given as its sorted ``(u, v)`` edges,
    ``u < v``: per edge, the common higher-numbered neighbours, so the
    triangle ``x < y < z`` counts once, at edge ``(x, y)``."""
    heads = canonical[:, 0]
    starts = np.flatnonzero(np.diff(heads, prepend=heads[:1] - 1))
    forward = dict(
        zip(heads[starts].tolist(), np.split(canonical[:, 1], starts[1:]))
    )
    return sum(
        len(np.intersect1d(forward[u], forward[v], assume_unique=True))
        for u, v in canonical.tolist()
        if v in forward
    )


def _expect_triangles(
    tree: TreeTopology, distribution: Distribution, **opts
) -> int:
    """The graph's triangle count; a graph that is not simple has none."""
    packed = distribution.relation(DEFAULT_EDGE_TAG)
    canonical = canonical_edges(np.stack(decode_edges(packed), axis=1))
    if len(canonical) != len(packed):
        raise ProtocolError(
            "triangle counting requires a simple graph; the placement "
            "contains duplicated edges"
        )
    return _triangle_count(canonical)


def _check_triangles(result: ProtocolResult, expected: int) -> None:
    """The per-node counts must sum to the graph's triangle count."""
    produced = sum(
        output.get("num_triangles", 0) for output in result.outputs.values()
    )
    if produced != expected:
        raise ProtocolError(
            f"{result.protocol} counted {produced} of {expected} triangles"
        )


# --------------------------------------------------------------------- #
# compilation through the planner
# --------------------------------------------------------------------- #


def triangle_query():
    """The cyclic three-way self-join whose result rows are triangles."""
    from repro.plan import Join, JoinCondition, Scan

    return Join(
        inputs=(Scan("E1"), Scan("E2"), Scan("E3")),
        conditions=(
            JoinCondition(0, "b", 1, "b"),
            JoinCondition(1, "c", 2, "c"),
            JoinCondition(0, "a", 2, "a"),
        ),
    )


def triangle_catalog(tree: TreeTopology, distribution: Distribution) -> dict:
    """Three renamings of the oriented edge relation, placed as given.

    Each fragment is canonicalized locally (``a < b`` — free
    computation), and the same physical rows back ``E1(a, b)``,
    ``E2(b, c)`` and ``E3(a, c)``.
    """
    from repro.plan import PlacedRelation, Schema

    fragments: dict = {}
    for node in distribution.node_order:
        packed = distribution.fragment(node, DEFAULT_EDGE_TAG)
        if not len(packed):
            continue
        src, dst = decode_edges(packed)
        rows = np.stack(
            [np.minimum(src, dst), np.maximum(src, dst)], axis=1
        )
        fragments[node] = rows
    widths = (VERTEX_BITS, VERTEX_BITS)
    return {
        "E1": PlacedRelation(Schema(("a", "b"), widths), fragments),
        "E2": PlacedRelation(Schema(("b", "c"), widths), fragments),
        "E3": PlacedRelation(Schema(("a", "c"), widths), fragments),
    }


def _compile(tree: TreeTopology, catalog: dict, flavor: str):
    """A physical plan for ``flavor``.

    ``optimized`` keeps the planner's per-stage protocol choice (the
    topology-aware behaviour: whichever registered equi-join is
    estimated cheapest on this topology and placement); ``gather`` is
    the planner's centralizing strategy; ``uniform-hash`` pins every
    shuffle stage to that protocol, isolating what the protocol choice
    alone is worth.
    """
    from repro.plan import optimize

    if flavor == "gather":
        return optimize(triangle_query(), tree, catalog, strategy="gather")
    physical = optimize(triangle_query(), tree, catalog, strategy="optimized")
    if flavor == "optimized":
        return physical
    stages = tuple(
        replace(stage, protocol=flavor)
        if stage.kind in ("join", "groupby")
        else stage
        for stage in physical.stages
    )
    return replace(physical, stages=stages)


def _count_triangles(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    flavor: str,
    protocol_name: str,
    seed: int,
) -> ProtocolResult:
    from repro.plan.executor import execute_plan

    catalog = triangle_catalog(tree, distribution)
    computes = tree.compute_nodes
    num_edges = distribution.total(DEFAULT_EDGE_TAG)
    if num_edges == 0:
        return ProtocolResult(
            protocol=protocol_name,
            rounds=0,
            cost=0.0,
            ledger=CostLedger(tree),
            outputs={v: {"num_triangles": 0} for v in computes},
            meta={
                "tag": DEFAULT_EDGE_TAG,
                "num_edges": 0,
                "num_vertices": 0,
                "num_triangles": 0,
                "supersteps": [],
                "strategy": flavor,
            },
        )
    physical = _compile(tree, catalog, flavor)
    plan_report, output = execute_plan(
        physical, tree, catalog, seed=seed, keep_output=True
    )
    outputs: dict = {v: {"num_triangles": 0} for v in computes}
    for node in output.node_order:
        outputs[node] = {"num_triangles": int(output.size(node))}
    vertices = np.unique(catalog["E1"].rows())
    meta = {
        "tag": DEFAULT_EDGE_TAG,
        "num_edges": int(num_edges),
        "num_vertices": int(len(vertices)),
        "num_triangles": int(output.total_rows),
        "strategy": flavor,
        "estimated_cost": plan_report.estimated_cost,
        "supersteps": [stage.to_dict() for stage in plan_report.stages],
        "plan": [
            stage["operator"] for stage in plan_report.meta["stages"]
        ],
    }
    return ProtocolResult(
        protocol=protocol_name,
        rounds=plan_report.rounds,
        cost=plan_report.cost,
        ledger=CostLedger(tree),
        outputs=outputs,
        meta=meta,
    )


# --------------------------------------------------------------------- #
# registered protocols
# --------------------------------------------------------------------- #


@register_protocol(
    task="triangle-count",
    name="optimized",
    accepts_seed=True,
    description="Planner-compiled joins, protocol chosen per stage",
)
def optimized_triangle_count(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
) -> ProtocolResult:
    """Topology-aware triangle counting: the planner picks each stage."""
    return _count_triangles(
        tree,
        distribution,
        flavor="optimized",
        protocol_name="optimized-triangles",
        seed=seed,
    )


@register_protocol(
    task="triangle-count",
    name="uniform-hash",
    kind="baseline",
    accepts_seed=True,
    description="The same plan with uniform-hash MPC joins per stage",
)
def uniform_hash_triangle_count(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
) -> ProtocolResult:
    """Topology-agnostic triangle counting (uniform hash joins)."""
    return _count_triangles(
        tree,
        distribution,
        flavor="uniform-hash",
        protocol_name="uniform-hash-triangles",
        seed=seed,
    )


@register_protocol(
    task="triangle-count",
    name="gather",
    kind="baseline",
    accepts_seed=True,
    description="The planner's gather-everything strategy",
)
def gather_triangle_count(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    seed: int = 0,
) -> ProtocolResult:
    """Centralizing triangle counting (gather stages)."""
    return _count_triangles(
        tree,
        distribution,
        flavor="gather",
        protocol_name="gather-triangles",
        seed=seed,
    )


register_task(
    "triangle-count",
    default_protocol="optimized",
    expect=_expect_triangles,
    check=_check_triangles,
    lower_bound=triangles_lower_bound,
    bound_holds_per_instance=True,
    aliases=("triangles",),
)


# --------------------------------------------------------------------- #
# facade
# --------------------------------------------------------------------- #


def run_triangles(
    tree: TreeTopology,
    graph: "PlacedGraph | Distribution",
    *,
    protocol: str | None = None,
    seed: int = 0,
    placement: str = "custom",
    **opts,
) -> GraphRunReport:
    """Run triangle counting and report per-stage costs."""
    return _run_graph_task(
        "triangle-count",
        tree,
        graph,
        converged=True,
        protocol=protocol,
        seed=seed,
        placement=placement,
        **opts,
    )
