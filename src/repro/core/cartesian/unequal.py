"""The unequal-size cartesian product on a star (Appendix A.1).

With ``|R| < |S|`` the clean Theorem 4 counting bound breaks down
(Section 4.5): a node can cap its useful square at width ``|R|``, so the
bound becomes the implicit minimiser ``L*`` of

    sum_v min(C * w_v, |R|) * C * w_v  >=  |R| * |S|          (2)

(:func:`l_star`; the appendix calls it ``V(R, S, V_C)`` and ``L``).
Theorems 8 and 9 are the resulting lower bounds, and Algorithms 7 and 8
the matching protocol: every data-rich (``Vβ``) node receives all of
``R`` and joins locally, while the generalized wHC tiles the remaining
grid with capacity-proportional *rectangles* — full-width slabs for
nodes whose capacity exceeds ``|R|``, squares for the rest.

Engineering notes (see DESIGN.md): the appendix's square sides
``2^-l * w * L*`` are quantized here to integer powers of two, placement
uses a greedy largest-first L-shaped recursion, and a doubling retry on
``L*`` guarantees coverage; tiles may overlap (pairs are then emitted
more than once, which the problem statement allows), so coverage is
verified geometrically rather than by area.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.cartesian.grid import GridLabeling
from repro.core.cartesian.packing import (
    RectTile,
    assert_tiles_cover_grid,
)
from repro.core.cartesian.routing import (
    R_RECV,
    S_RECV,
    gather_all_pairs,
    route_axis,
)
from repro.core.common import LowerBound
from repro.data.distribution import Distribution
from repro.errors import PackingError, ProtocolError
from repro.registry import register_protocol
from repro.sim.cluster import Cluster
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import NodeId, TreeTopology, node_sort_key
from repro.util.intmath import next_power_of_two_at_least

_R_BETA = "unequal.R.beta"
_S_CHUNK = "unequal.S.chunk"


# --------------------------------------------------------------------- #
# the L* minimiser and the lower bounds
# --------------------------------------------------------------------- #


def l_star(
    r_size: int, s_size: int, bandwidths: Iterable[float]
) -> float:
    """The minimiser of inequality (2) — the appendix's ``V(R, S, V_C)``.

    The left side is non-decreasing in ``C``, so binary search applies.
    Returns 0 when the output grid is empty.
    """
    widths = [float(w) for w in bandwidths]
    if any(math.isinf(w) for w in widths):
        raise ProtocolError("L* needs finite bandwidths")
    target = r_size * s_size
    if target == 0:
        return 0.0
    if not widths:
        raise ProtocolError("L* needs at least one node")

    def supply(c: float) -> float:
        return sum(min(c * w, r_size) * c * w for w in widths)

    high = 1.0
    while supply(high) < target:
        high *= 2.0
        if high > 2**80:  # pragma: no cover - unreachable for valid input
            raise ProtocolError("L* search diverged")
    low = 0.0
    for _ in range(80):
        mid = (low + high) / 2.0
        if supply(mid) >= target:
            high = mid
        else:
            low = mid
    return high


def _star_leaf_bandwidths(tree: TreeTopology) -> dict:
    center = tree.star_center()
    if center in tree.compute_nodes:
        raise ProtocolError("the star center must be a router")
    return {
        v: tree.bandwidth(v, center)
        for v in tree.routing_index.compute_nodes
    }


def _split_alpha_beta(
    sizes: Mapping[NodeId, int], r_size: int
) -> tuple[list, list]:
    total = sum(sizes.values())
    alpha = [
        v for v in sorted(sizes, key=node_sort_key)
        if min(sizes[v], total - sizes[v]) < r_size
    ]
    beta = [v for v in sorted(sizes, key=node_sort_key) if v not in set(alpha)]
    return alpha, beta


def unequal_lower_bound_flow(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    r_tag: str = "R",
    s_tag: str = "S",
) -> LowerBound:
    """Theorem 8: per-link flow bound ``min(N_v, N - N_v, |R|) / w_v``."""
    tree.require_symmetric("the Theorem 8 lower bound")
    return LowerBound.from_lighter_sides(
        tree,
        distribution,
        (r_tag, s_tag),
        "Theorem 8 (unequal, flow)",
        cap=min(distribution.total(r_tag), distribution.total(s_tag)),
    )


def unequal_lower_bound_counting(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    r_tag: str = "R",
    s_tag: str = "S",
) -> LowerBound:
    """Theorem 9: the counting bound for ``max_v N_v <= N/2`` star instances.

    ``min(|S| / max_v w_v,  sum_{Vα} |S_v| / (2 sum_{Vβ} w_v),
    L*(R, S restricted to Vα, Vα))``; terms whose denominator set is
    empty are skipped.  Returns 0 when one node dominates (the gather
    strategy is then optimal and Theorem 8 already covers it).
    """
    tree.require_symmetric("the Theorem 9 lower bound")
    swapped = distribution.total(r_tag) > distribution.total(s_tag)
    small, large = (s_tag, r_tag) if swapped else (r_tag, s_tag)
    r_size = distribution.total(small)
    s_size = distribution.total(large)
    if r_size * s_size == 0:
        return LowerBound(0.0, description="Theorem 9 (empty instance)")
    sizes = {
        v: distribution.size(v, small) + distribution.size(v, large)
        for v in tree.compute_nodes
    }
    total = sum(sizes.values())
    if max(sizes.values()) > total / 2:
        return LowerBound(
            0.0, description="Theorem 9 (inapplicable: dominant node)"
        )
    bandwidths = _star_leaf_bandwidths(tree)
    alpha, beta = _split_alpha_beta(sizes, r_size)
    terms = [s_size / max(bandwidths.values())]
    alpha_s = sum(distribution.size(v, large) for v in alpha)
    if beta:
        terms.append(alpha_s / (2 * sum(bandwidths[v] for v in beta)))
    if alpha and alpha_s:
        terms.append(
            l_star(r_size, alpha_s, [bandwidths[v] for v in alpha])
        )
    return LowerBound(
        min(terms), description="Theorem 9 (unequal, counting)"
    )


def unequal_cartesian_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    r_tag: str = "R",
    s_tag: str = "S",
) -> LowerBound:
    """The stronger of Theorems 8 and 9."""
    flow = unequal_lower_bound_flow(
        tree, distribution, r_tag=r_tag, s_tag=s_tag
    )
    counting = unequal_lower_bound_counting(
        tree, distribution, r_tag=r_tag, s_tag=s_tag
    )
    return counting if counting.value > flow.value else flow


# --------------------------------------------------------------------- #
# Algorithm 7: BalancedPackingUnEqual
# --------------------------------------------------------------------- #


def _cover_rect(
    x: int, y: int, w: int, h: int, pool: list, tiles: dict
) -> bool:
    """Greedy largest-first L-shaped cover of a rectangle with squares."""
    if w <= 0 or h <= 0:
        return True
    if not pool:
        return False
    side, node = pool.pop(0)
    tiles[node] = RectTile(x0=x, y0=y, width=side, height=side)
    if side >= w and side >= h:
        return True
    if side >= h:
        return _cover_rect(x + side, y, w - side, h, pool, tiles)
    if side >= w:
        return _cover_rect(x, y + side, w, h - side, pool, tiles)
    return _cover_rect(
        x + side, y, w - side, side, pool, tiles
    ) and _cover_rect(x, y + side, w, h - side, pool, tiles)


def balanced_packing_unequal(
    bandwidths: Mapping[NodeId, float],
    r_size: int,
    s_size: int,
) -> tuple[dict, float]:
    """Algorithm 7: assign rectangles/squares covering the |R| x |S| grid.

    Returns ``(tiles, scale)`` where ``tiles[node]`` is a
    :class:`RectTile` (or None for unused nodes) and ``scale`` is the
    ``L*`` actually used (doubled from :func:`l_star` as needed until
    the greedy placement covers; at most a constant-factor loss).
    """
    if r_size == 0 or s_size == 0:
        return {node: None for node in bandwidths}, 0.0
    if r_size > s_size:
        # The appendix assumes |R| <= |S|, but the sub-grids Algorithm 8
        # hands us (R x the Vα part of S) can be wider than tall; pack
        # the transposed grid and flip the tiles back.
        transposed, scale = balanced_packing_unequal(
            bandwidths, s_size, r_size
        )
        flipped = {
            node: (
                None
                if tile is None
                else RectTile(
                    x0=tile.y0, y0=tile.x0,
                    width=tile.height, height=tile.width,
                )
            )
            for node, tile in transposed.items()
        }
        return flipped, scale
    scale = l_star(r_size, s_size, bandwidths.values())
    ordered = sorted(
        bandwidths, key=lambda v: (-bandwidths[v], node_sort_key(v))
    )
    for _ in range(10):
        tiles: dict = {node: None for node in bandwidths}
        y = 0
        squares: list = []
        for node in ordered:
            capacity = bandwidths[node] * scale
            if capacity >= r_size:
                if y < s_size:
                    height = int(math.ceil(capacity))
                    tiles[node] = RectTile(
                        x0=0, y0=y, width=r_size, height=height
                    )
                    y += height
            else:
                squares.append(
                    (next_power_of_two_at_least(capacity), node)
                )
        covered = y >= s_size or _cover_rect(
            0, y, r_size, s_size - y, squares, tiles
        )
        if covered:
            assert_tiles_cover_grid(tiles, r_size, s_size)
            return tiles, scale
        scale *= 2.0
    raise PackingError(  # pragma: no cover - retries always suffice
        "generalized packing failed to cover the grid"
    )


# --------------------------------------------------------------------- #
# Algorithm 8: GeneralizedStarCartesianProduct
# --------------------------------------------------------------------- #


def _strategy_gather(tree, distribution, r_tag, s_tag) -> ProtocolResult:
    bandwidths = _star_leaf_bandwidths(tree)
    target = max(
        sorted(bandwidths, key=node_sort_key), key=lambda v: bandwidths[v]
    )
    cluster = Cluster(tree, distribution)
    outputs = gather_all_pairs(
        cluster, target, r_tag=r_tag, s_tag=s_tag, materialize=False
    )
    return ProtocolResult.from_ledger(
        "unequal-star-cartesian", cluster.ledger, outputs=outputs,
        meta={"strategy": "gather-max-bandwidth", "target": target},
    )


def _broadcast_r_to_beta(ctx, cluster, beta, r_tag) -> None:
    """Every compute node multicasts its R fragment to the Vβ nodes other
    than itself: one group per compute node, in compute order, its set
    in CSR form.  A node whose set is empty (the only Vβ node) sends
    nothing."""
    count = len(cluster.compute_order)
    position = cluster.artifacts.compute_position
    beta_ids = np.array(sorted(position[v] for v in beta), dtype=np.intp)
    rows = np.broadcast_to(beta_ids, (count, len(beta_ids)))
    keep = rows != np.arange(count)[:, None]
    offsets = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    owners, values = cluster.column(r_tag)
    served = (np.diff(offsets) > 0)[owners]
    ctx.exchange_multicast_column(
        np.arange(count),
        owners[served],
        (rows[keep], offsets),
        values[served],
        tag=_R_BETA,
    )


def _beta_pairs(cluster, node, r_size, s_tag) -> int:
    return r_size * cluster.local_size(node, s_tag)


def _strategy_proportional(
    tree, distribution, r_tag, s_tag, alpha, beta
) -> ProtocolResult | None:
    if not beta:
        return None
    bandwidths = _star_leaf_bandwidths(tree)
    weights = np.array([bandwidths[v] for v in beta])
    cluster = Cluster(tree, distribution)
    computes = cluster.compute_order
    r_size = distribution.total(r_tag)
    position = cluster.artifacts.compute_position
    sources = np.array([position[v] for v in alpha], dtype=np.intp)
    owners, values = cluster.column(s_tag)
    sizes = np.bincount(owners, minlength=len(computes))[sources]
    # each Vα fragment (Vα ascends in compute order, as the column does)
    # cut at the cumulative Vβ bandwidth shares: one run per chunk
    cuts = np.floor(
        np.cumsum(weights / weights.sum()) * sizes[:, None]
    ).astype(np.int64)
    cuts[:, -1] = sizes  # guard against float round-down
    with cluster.round() as ctx:
        _broadcast_r_to_beta(ctx, cluster, beta, r_tag)
        ctx.exchange_runs(
            np.repeat(sources, len(beta)),
            np.tile([position[v] for v in beta], len(alpha)),
            np.diff(cuts, prepend=0).ravel(),
            values[np.isin(owners, sources)],
            tag=_S_CHUNK,
        )
    outputs: dict = {v: {"num_pairs": 0} for v in computes}
    for node in beta:
        outputs[node] = {
            "num_pairs": r_size
            * (
                cluster.local_size(node, s_tag)
                + cluster.local_size(node, _S_CHUNK)
            )
        }
    return ProtocolResult.from_ledger(
        "unequal-star-cartesian", cluster.ledger, outputs=outputs,
        meta={"strategy": "proportional-to-beta"},
    )


def _strategy_generalized_whc(
    tree, distribution, r_tag, s_tag, alpha, beta
) -> ProtocolResult | None:
    bandwidths = _star_leaf_bandwidths(tree)
    computes = tree.routing_index.compute_nodes
    r_size = distribution.total(r_tag)
    alpha_s = sum(distribution.size(v, s_tag) for v in alpha)

    tiles: dict = {v: None for v in computes}
    scale = 0.0
    if alpha and alpha_s:
        alpha_tiles, scale = balanced_packing_unequal(
            {v: bandwidths[v] for v in alpha}, r_size, alpha_s
        )
        tiles.update(alpha_tiles)

    # Label R over all nodes; label S only over the Vα fragments (the
    # Vβ fragments are joined locally against the broadcast copy of R).
    sub_placements: dict = {}
    for node in computes:
        entry: dict = {"R#": distribution.fragment(node, r_tag)}
        if node in set(alpha):
            entry["S#"] = distribution.fragment(node, s_tag)
        sub_placements[node] = entry
    labeling = GridLabeling.from_distribution(
        tree, Distribution(sub_placements), r_tag="R#", s_tag="S#"
    )

    cluster = Cluster(tree, distribution)
    with cluster.round() as ctx:
        _broadcast_r_to_beta(ctx, cluster, beta, r_tag)
        if alpha and alpha_s:
            # Route against the sub-labeling but read payloads from the
            # real storage tags.
            route_axis(
                ctx, cluster, labeling, tiles,
                axis="r", source_tag=r_tag, recv_tag=R_RECV,
            )
            route_axis(
                ctx, cluster, labeling, tiles,
                axis="s", source_tag=s_tag, recv_tag=S_RECV,
            )

    outputs: dict = {v: {"num_pairs": 0} for v in computes}
    for node in beta:
        outputs[node]["num_pairs"] += _beta_pairs(
            cluster, node, r_size, s_tag
        )
    for node, tile in tiles.items():
        if tile is None:
            continue
        r_lo, r_hi = tile.r_range(labeling.r_total)
        s_lo, s_hi = tile.s_range(labeling.s_total)
        outputs[node]["num_pairs"] += (r_hi - r_lo) * (s_hi - s_lo)
    return ProtocolResult.from_ledger(
        "unequal-star-cartesian", cluster.ledger, outputs=outputs,
        meta={"strategy": "generalized-whc", "scale": scale},
    )


@register_protocol(
    task="cartesian-product",
    name="unequal-star",
    topology="star",
    description="Algorithm 8: unequal-size cartesian product on a star",
)
def generalized_star_cartesian_product(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    r_tag: str = "R",
    s_tag: str = "S",
) -> ProtocolResult:
    """Algorithm 8: the unequal-size cartesian product on a star.

    Gathers at the dominant node when one exists; otherwise runs the
    applicable candidate strategies (gather at the best-connected node,
    proportional S-scatter to the data-rich nodes, generalized wHC on
    the rest) and returns the cheapest — the appendix's "pick the best
    of".  ``meta["candidates"]`` records every candidate's cost.

    Every returned strategy enumerates at least ``|R| * |S|`` pairs
    (tiles may overlap, so some pairs can be produced twice — allowed
    by the problem statement).
    """
    tree.require_symmetric("GeneralizedStarCartesianProduct")
    if not tree.is_star():
        raise ProtocolError("Algorithm 8 runs on star topologies")
    distribution.validate_for(tree)

    swapped = distribution.total(r_tag) > distribution.total(s_tag)
    small, large = (s_tag, r_tag) if swapped else (r_tag, s_tag)
    r_size = distribution.total(small)
    s_size = distribution.total(large)
    computes = tree.routing_index.compute_nodes
    sizes = {
        v: distribution.size(v, small) + distribution.size(v, large)
        for v in computes
    }
    total = sum(sizes.values())
    if total == 0 or r_size == 0:
        cluster = Cluster(tree, distribution)
        outputs = {v: {"num_pairs": 0} for v in computes}
        return ProtocolResult.from_ledger(
            "unequal-star-cartesian", cluster.ledger, outputs=outputs,
            meta={"strategy": "empty"},
        )

    heaviest = max(computes, key=lambda v: sizes[v])
    if sizes[heaviest] > total / 2:
        cluster = Cluster(tree, distribution)
        outputs = gather_all_pairs(
            cluster, heaviest, r_tag=small, s_tag=large, materialize=False
        )
        result = ProtocolResult.from_ledger(
            "unequal-star-cartesian", cluster.ledger, outputs=outputs,
            meta={"strategy": "gather-dominant", "target": heaviest},
        )
        result.meta["swapped_relations"] = swapped
        return result

    alpha, beta = _split_alpha_beta(sizes, r_size)
    candidates = [
        _strategy_gather(tree, distribution, small, large),
        _strategy_proportional(tree, distribution, small, large, alpha, beta),
        _strategy_generalized_whc(
            tree, distribution, small, large, alpha, beta
        ),
    ]
    viable = [c for c in candidates if c is not None]
    expected = r_size * s_size
    for candidate in viable:
        produced = sum(o["num_pairs"] for o in candidate.outputs.values())
        if produced < expected:
            raise ProtocolError(
                f"{candidate.meta['strategy']} enumerated {produced} "
                f"of {expected} pairs"
            )
    best = min(viable, key=lambda c: c.cost)
    best.meta["candidates"] = {
        c.meta["strategy"]: c.cost for c in viable
    }
    best.meta["swapped_relations"] = swapped
    best.meta["v_alpha"] = list(alpha)
    best.meta["v_beta"] = list(beta)
    return best
