"""The weighted HyperCube protocol on a star (Section 4.2).

Each compute node ``v`` of the star gets a square of dimension
``min{2^k >= w_v * L}`` with ``L = N / sqrt(sum_u w_u^2)`` (equation (1))
— capacity-proportional, unlike the classic HyperCube's equal squares —
packed by Lemma 5 and routed in a single deterministic round.  Lemma 6
bounds the cost by ``O(max(max_v N_v / w_v, N / sqrt(sum_v w_v^2)))``,
matching Theorems 3 and 4 on the star.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping

from repro.core.cartesian.grid import GridLabeling
from repro.core.cartesian.packing import (
    coverage_report,
    pack_flat,
    shrink_dimensions,
)
from repro.core.cartesian.routing import (
    R_RECV,
    S_RECV,
    collect_outputs,
    route_axis,
)
from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology
from repro.util.intmath import next_power_of_two_at_least


def whc_dimensions(
    bandwidths: Mapping[NodeId, float], n_total: int, *, shrink: bool = True
) -> dict:
    """Equation (1): capacity-proportional power-of-two square dimensions.

    With ``shrink`` (default), dimensions are then greedily halved while
    the total area still covers the grid
    (:func:`repro.core.cartesian.packing.shrink_dimensions`), trimming
    the up-to-4x overshoot of the power-of-two rounding.
    """
    if n_total <= 0:
        raise ProtocolError("weighted HyperCube needs a non-empty input")
    for node, bandwidth in bandwidths.items():
        if math.isinf(bandwidth):
            raise ProtocolError(
                f"node {node!r} has an infinite-bandwidth link; square "
                "dimensions need finite bandwidths"
            )
    scale = n_total / math.sqrt(sum(w * w for w in bandwidths.values()))
    dims = {
        node: next_power_of_two_at_least(bandwidth * scale)
        for node, bandwidth in bandwidths.items()
    }
    if shrink:
        dims = shrink_dimensions(dims, n_total * n_total)
    return dims


@register_protocol(
    task="cartesian-product",
    name="whc",
    topology="star",
    description="Weighted HyperCube (Algorithm 5) on a symmetric star",
)
def whc_cartesian_product(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    materialize: bool = False,
    dims: Mapping[NodeId, int] | None = None,
) -> ProtocolResult:
    """Run wHC on a symmetric star; requires ``|R| == |S|``.

    ``dims`` overrides the square dimensions (used by the classic-
    HyperCube baseline and by ablations); by default they follow
    equation (1).  ``outputs[v]["num_pairs"]`` counts the pairs node
    ``v`` enumerates; with ``materialize=True`` the actual pairs are
    included (tests only — the output is quadratic).
    """
    tree.require_symmetric("the weighted HyperCube")
    if not tree.is_star():
        raise ProtocolError(
            "the weighted HyperCube runs on stars; use "
            "tree_cartesian_product for general trees"
        )
    distribution.validate_for(tree)
    r_total = distribution.total("R")
    s_total = distribution.total("S")
    if r_total != s_total:
        raise ProtocolError(
            f"wHC handles |R| == |S| (got {r_total} vs {s_total}); use "
            "generalized_star_cartesian_product for the unequal case"
        )
    n_total = r_total + s_total

    center = tree.star_center()
    computes = tree.compute_nodes
    if dims is None:
        bandwidths = {v: tree.bandwidth(v, center) for v in computes if v != center}
        if tree.is_compute_node(center):
            raise ProtocolError("the star center must be a router for wHC")
        dims = whc_dimensions(bandwidths, n_total)

    labeling = GridLabeling.from_distribution(tree, distribution)
    tiles = pack_flat(dims, r_total, s_total)
    coverage = coverage_report(tiles, r_total, s_total)

    cluster = Cluster(tree, distribution)
    with cluster.round() as ctx:
        route_axis(
            ctx, cluster, labeling, tiles,
            axis="r", source_tag="R", recv_tag=R_RECV,
        )
        route_axis(
            ctx, cluster, labeling, tiles,
            axis="s", source_tag="S", recv_tag=S_RECV,
        )
    outputs = collect_outputs(cluster, labeling, tiles, materialize=materialize)
    return ProtocolResult.from_ledger(
        "weighted-hypercube",
        cluster.ledger,
        outputs=outputs,
        meta={"dims": dict(dims), "coverage": coverage},
    )
