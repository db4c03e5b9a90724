"""Cartesian product on general symmetric trees (Section 4.4, Theorem 5).

The oriented tree G-dagger decides the strategy:

* **compute root** — all data flows downhill to the root, which
  enumerates everything; this matches the Theorem 3 bound;
* **router root** — Algorithm 5 sizes a square per compute node, the
  locality-preserving packing places them (at most three squares of each
  size cross any link), and a single round of Steiner multicasts routes
  every element to the tiles that need it.

The paper routes in two steps through the root; we multicast directly
along Steiner trees, which is edge-wise dominated by the two-step route
(``path(u, v) ⊆ path(u, r) ∪ path(r, v)`` in a tree), so the Theorem 5
guarantee carries over and the protocol stays one round (see DESIGN.md).
"""

from __future__ import annotations

from repro.core.cartesian.grid import GridLabeling
from repro.core.cartesian.packing import coverage_report, pack_by_dagger
from repro.core.cartesian.routing import (
    R_RECV,
    S_RECV,
    collect_outputs,
    gather_all_pairs,
    route_axis,
)
from repro.core.cartesian.tree_packing import balanced_packing_tree
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.dagger import build_dagger
from repro.topology.tree import TreeTopology


@register_protocol(
    task="cartesian-product",
    name="tree",
    description="Theorem 5 dagger-packing product on any symmetric tree",
)
def tree_cartesian_product(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    r_tag: str = "R",
    s_tag: str = "S",
    materialize: bool = False,
) -> ProtocolResult:
    """Run the Theorem 5 protocol; requires ``|R| == |S|``."""
    tree.require_symmetric("tree cartesian product")
    distribution.validate_for(tree)
    r_total = distribution.total(r_tag)
    s_total = distribution.total(s_tag)
    if r_total != s_total:
        raise ProtocolError(
            f"Theorem 5 handles |R| == |S| (got {r_total} vs {s_total}); "
            "use generalized_star_cartesian_product for the unequal case"
        )
    sizes = {
        v: distribution.size(v, r_tag) + distribution.size(v, s_tag)
        for v in tree.compute_nodes
    }
    n_total = sum(sizes.values())
    cluster = Cluster(tree, distribution)
    if n_total == 0:
        outputs = {v: {"num_pairs": 0} for v in tree.compute_nodes}
        return ProtocolResult.from_ledger(
            "tree-cartesian", cluster.ledger, outputs=outputs,
            meta={"strategy": "empty"},
        )

    dagger = build_dagger(tree, sizes)
    if dagger.root_is_compute:
        outputs = gather_all_pairs(
            cluster, dagger.root, r_tag=r_tag, s_tag=s_tag,
            materialize=materialize,
        )
        return ProtocolResult.from_ledger(
            "tree-cartesian",
            cluster.ledger,
            outputs=outputs,
            meta={"strategy": "gather-to-root", "target": dagger.root},
        )

    plan = balanced_packing_tree(dagger, n_total)
    tiles = pack_by_dagger(dagger, plan.dims, r_total, s_total)
    coverage = coverage_report(tiles, r_total, s_total)
    labeling = GridLabeling.from_distribution(
        tree, distribution, r_tag=r_tag, s_tag=s_tag
    )
    with cluster.round() as ctx:
        route_axis(
            ctx, cluster, labeling, tiles,
            axis="r", source_tag=r_tag, recv_tag=R_RECV,
        )
        route_axis(
            ctx, cluster, labeling, tiles,
            axis="s", source_tag=s_tag, recv_tag=S_RECV,
        )
    outputs = collect_outputs(cluster, labeling, tiles, materialize=materialize)
    return ProtocolResult.from_ledger(
        "tree-cartesian",
        cluster.ledger,
        outputs=outputs,
        meta={
            "strategy": "balanced-packing",
            "dagger_root": dagger.root,
            "dims": dict(plan.dims),
            "coverage": coverage,
        },
    )
