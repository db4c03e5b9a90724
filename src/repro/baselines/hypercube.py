"""Classic (unweighted) HyperCube cartesian product [1].

The output grid is cut into a ``p1 x p2`` lattice of equal rectangles,
one per participating node, with ``p1 * p2`` the largest such product
not exceeding ``|V_C|`` — every node receives ``|R|/p1 + |S|/p2``
elements regardless of its link bandwidth.  This is the algorithm the
weighted HyperCube (Section 4.2) generalizes; the Figure 4 benchmark
shows the weighted variant winning exactly when bandwidths diverge.
"""

from __future__ import annotations

import math

from repro.core.cartesian.grid import GridLabeling
from repro.core.cartesian.packing import RectTile, coverage_report
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
from repro.topology.tree import TreeTopology
from repro.util.intmath import ceil_div


def _lattice_shape(num_nodes: int, r_total: int, s_total: int) -> tuple[int, int]:
    """Pick ``p1 x p2 <= num_nodes`` minimizing ``|R|/p1 + |S|/p2``."""
    best: tuple[float, int, int] | None = None
    for p1 in range(1, num_nodes + 1):
        p2 = num_nodes // p1
        if p2 < 1:
            break
        cost = r_total / p1 + s_total / p2
        if best is None or cost < best[0]:
            best = (cost, p1, p2)
    assert best is not None
    return best[1], best[2]


@register_protocol(
    task="cartesian-product",
    name="classic-hypercube",
    kind="baseline",
    description="Equal-rectangles HyperCube, topology-agnostic",
)
def classic_hypercube_cartesian_product(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    materialize: bool = False,
) -> ProtocolResult:
    """Run the equal-rectangles HyperCube on any tree."""
    distribution.validate_for(tree)
    r_total = distribution.total("R")
    s_total = distribution.total("S")
    cluster = Cluster(tree, distribution)
    computes = cluster.compute_order
    if r_total == 0 or s_total == 0:
        outputs = {v: {"num_pairs": 0} for v in computes}
        return ProtocolResult.from_ledger(
            "classic-hypercube", cluster.ledger, outputs=outputs
        )

    p1, p2 = _lattice_shape(len(computes), r_total, s_total)
    col_width = ceil_div(r_total, p1)
    row_height = ceil_div(s_total, p2)
    tiles: dict = {v: None for v in computes}
    for index in range(p1 * p2):
        column, row = index % p1, index // p1
        tiles[computes[index]] = RectTile(
            x0=column * col_width,
            y0=row * row_height,
            width=col_width,
            height=row_height,
        )
    coverage = coverage_report(tiles, r_total, s_total)

    labeling = GridLabeling.from_distribution(tree, distribution)
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
        "classic-hypercube",
        cluster.ledger,
        outputs=outputs,
        meta={"lattice": (p1, p2), "coverage": coverage},
    )
