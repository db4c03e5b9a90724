"""Power-of-two square packing (Lemma 5 / Figure 4).

Every compute node is assigned a square whose dimension is a power of
two.  The packing algorithm repeatedly combines four equal squares into
one of twice the side — after which at most three squares of each size
remain — and the largest combined square is therefore perfectly *tiled*
by the original squares.  Because the dimension rule guarantees
``sum d_v^2 >= N^2``, the largest combined square has side at least
``N/2`` and covers the whole ``(N/2) x (N/2)`` output grid.

For the tree algorithm the combining must respect locality: squares of
compute nodes in the same G-dagger subtree are merged together first
(:func:`pack_by_dagger`), so the tiles of a subtree occupy a small number
of contiguous grid regions and the data crossing the subtree's single
out-link stays within the Theorem 4 budget.  The star algorithm uses the
flat variant (:func:`pack_flat`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import PackingError
from repro.topology.dagger import Dagger
from repro.topology.tree import NodeId, node_sort_key
from repro.util.intmath import is_power_of_two


@dataclass(frozen=True)
class Tile:
    """A node's assigned square, placed at grid position ``(x0, y0)``."""

    x0: int
    y0: int
    size: int

    @property
    def width(self) -> int:
        return self.size

    @property
    def height(self) -> int:
        return self.size

    def r_range(self, r_total: int) -> tuple[int, int]:
        """R-label range the tile needs, clipped to the grid width."""
        return (min(self.x0, r_total), min(self.x0 + self.size, r_total))

    def s_range(self, s_total: int) -> tuple[int, int]:
        """S-label range the tile needs, clipped to the grid height."""
        return (min(self.y0, s_total), min(self.y0 + self.size, s_total))

    def clipped_area(self, r_total: int, s_total: int) -> int:
        r_lo, r_hi = self.r_range(r_total)
        s_lo, s_hi = self.s_range(s_total)
        return (r_hi - r_lo) * (s_hi - s_lo)


@dataclass(frozen=True)
class RectTile:
    """A rectangular grid region; same interface as :class:`Tile`.

    The paper's algorithms only use squares, but the classic HyperCube
    baseline and the unequal-size appendix algorithm assign rectangles;
    the routing layer accepts either shape.
    """

    x0: int
    y0: int
    width: int
    height: int

    def r_range(self, r_total: int) -> tuple[int, int]:
        return (min(self.x0, r_total), min(self.x0 + self.width, r_total))

    def s_range(self, s_total: int) -> tuple[int, int]:
        return (min(self.y0, s_total), min(self.y0 + self.height, s_total))

    def clipped_area(self, r_total: int, s_total: int) -> int:
        r_lo, r_hi = self.r_range(r_total)
        s_lo, s_hi = self.s_range(s_total)
        return (r_hi - r_lo) * (s_hi - s_lo)


class _SquareNode:
    """A square in the merge forest: a leaf tile or four half-size children."""

    __slots__ = ("size", "owner", "children")

    def __init__(self, size, owner=None, children=None):
        self.size = size
        self.owner = owner
        self.children = children


def merge_pool(
    squares: Iterable["_SquareNode"],
) -> list["_SquareNode"]:
    """Combine four-of-a-kind until at most three squares of each size remain.

    This is the procedure in Lemma 5 (and the per-node step of the tree
    packing in Section 4.4).  Combination is deterministic: squares are
    consumed in insertion order.
    """
    by_size: dict[int, list[_SquareNode]] = {}
    for square in squares:
        if not is_power_of_two(square.size):
            raise PackingError(f"square size {square.size} is not a power of two")
        by_size.setdefault(square.size, []).append(square)
    size = 1
    max_size = max(by_size, default=1)
    while size <= max_size:
        group = by_size.get(size, [])
        while len(group) >= 4:
            children = [group.pop(0) for _ in range(4)]
            merged = _SquareNode(size * 2, children=children)
            by_size.setdefault(size * 2, []).append(merged)
            max_size = max(max_size, size * 2)
        size *= 2
    result: list[_SquareNode] = []
    for size in sorted(by_size):
        result.extend(by_size[size])
    return result


def _place(square: "_SquareNode", x0: int, y0: int, tiles: dict) -> None:
    if square.owner is not None:
        tiles[square.owner] = Tile(x0, y0, square.size)
        return
    half = square.size // 2
    offsets = ((0, 0), (half, 0), (0, half), (half, half))
    for child, (dx, dy) in zip(square.children, offsets):
        _place(child, x0 + dx, y0 + dy, tiles)


def _leaf_squares(dims: Mapping[NodeId, int]) -> list["_SquareNode"]:
    return [
        _SquareNode(dims[owner], owner=owner)
        for owner in sorted(dims, key=node_sort_key)
    ]


def shrink_dimensions(
    dims: Mapping[NodeId, int], required_area: float
) -> dict:
    """Halve square dimensions while the total area still covers the grid.

    The coverage argument (Lemma 5 / Theorem 5) only needs
    ``sum d_v^2 >= required_area`` — the merge procedure then always
    produces a combined square larger than ``sqrt(required_area) / 2``.
    Rounding each ``d_v`` up to a power of two can overshoot that budget
    by up to 4x, so this pass greedily halves the largest squares while
    the budget allows.  Every upper-bound in the analyses is monotone in
    the dimensions, so shrinking preserves all guarantees while reducing
    the received volume (an engineering refinement; see DESIGN.md).
    """
    sizes = {node: int(d) for node, d in dims.items()}
    area = sum(d * d for d in sizes.values())
    # Only ever halve a square of the *current maximum* dimension, and
    # stop as soon as one such square cannot be halved: the received
    # volume is governed by the largest squares, and halving smaller
    # ones would concentrate the grid on the survivors instead.
    while True:
        max_dim = max(sizes.values(), default=0)
        if max_dim <= 1:
            break
        progressed = False
        for node in sorted(
            (v for v in sizes if sizes[v] == max_dim), key=node_sort_key
        ):
            dim = sizes[node]
            half = dim // 2
            if area - dim * dim + half * half >= required_area:
                sizes[node] = half
                area += half * half - dim * dim
                progressed = True
            else:
                return sizes
        if not progressed:  # pragma: no cover - loop always returns above
            break
    return sizes


def _finish(
    pool: Sequence["_SquareNode"],
    dims: Mapping[NodeId, int],
    grid_w: int,
    grid_h: int,
) -> dict:
    """Place the largest combined square at the origin and read off tiles.

    Among equally large squares, a *merged* square is preferred over a
    single node's leaf square: it spreads the grid across four subtrees
    instead of funnelling everything into one node.
    """
    if not pool:
        raise PackingError("no squares to pack")
    largest = max(
        pool, key=lambda s: (s.size, s.children is not None)
    )
    needed = max(grid_w, grid_h)
    if largest.size < needed:
        raise PackingError(
            f"largest combined square ({largest.size}) cannot cover the "
            f"{grid_w} x {grid_h} grid; sum of square areas too small"
        )
    tiles: dict = {owner: None for owner in dims}
    placed: dict = {}
    _place(largest, 0, 0, placed)
    tiles.update(placed)
    return tiles


def pack_flat(
    dims: Mapping[NodeId, int], grid_w: int, grid_h: int
) -> dict:
    """Lemma 5 packing: one global merge, largest square covers the grid.

    Returns ``{node: Tile | None}``; ``None`` marks nodes whose square
    ended up outside the covering square (their capacity is unused, which
    only lowers cost).
    """
    return _finish(merge_pool(_leaf_squares(dims)), dims, grid_w, grid_h)


def pack_by_dagger(
    dagger: Dagger,
    dims: Mapping[NodeId, int],
    grid_w: int,
    grid_h: int,
) -> dict:
    """Locality-preserving packing along G-dagger (Section 4.4).

    Merging proceeds bottom-up over the oriented tree: each node combines
    the square pools of its children (plus its own square, for compute
    leaves), so at most three squares of each size cross any link — the
    invariant behind the ``O(N * l_u)`` per-link bound of Theorem 5.
    """
    pools: dict[NodeId, list[_SquareNode]] = {}
    for node in dagger.postorder():
        gathered = [_SquareNode(dims[node], owner=node)] if node in dims else []
        for child in dagger.children(node):
            gathered.extend(pools.pop(child))
        pools[node] = merge_pool(gathered)
    return _finish(pools[dagger.root], dims, grid_w, grid_h)


def assert_tiles_cover_grid(
    tiles: Mapping[NodeId, "Tile | RectTile | None"],
    grid_w: int,
    grid_h: int,
) -> None:
    """Verify the (possibly overlapping) tiles cover every grid cell.

    The equal-size algorithms produce disjoint tiles, where an area
    argument suffices; the unequal-size packing (Appendix A.1) may
    overlap, so coverage is checked geometrically: sweep the distinct
    x-boundaries and verify the union of y-ranges of the tiles spanning
    each x-segment covers ``[0, grid_h)``.
    """
    if grid_w == 0 or grid_h == 0:
        return
    placed = [t for t in tiles.values() if t is not None]
    boundaries = sorted(
        {0, grid_w}
        | {min(t.x0, grid_w) for t in placed}
        | {min(t.x0 + t.width, grid_w) for t in placed}
    )
    for x_lo, x_hi in zip(boundaries[:-1], boundaries[1:]):
        if x_lo >= x_hi:
            continue
        intervals = sorted(
            t.s_range(grid_h)
            for t in placed
            if t.x0 <= x_lo and t.x0 + t.width >= x_hi
        )
        covered_until = 0
        for lo, hi in intervals:
            if lo > covered_until:
                break
            covered_until = max(covered_until, hi)
        if covered_until < grid_h:
            raise PackingError(
                f"columns [{x_lo}, {x_hi}) only covered up to row "
                f"{covered_until} of {grid_h}"
            )


def coverage_report(
    tiles: Mapping[NodeId, Tile | None], grid_w: int, grid_h: int
) -> dict:
    """Verify the tiles exactly tile the grid; summarize utilization.

    Quadtree placement guarantees the tiles are pairwise disjoint, so the
    grid is fully covered iff the clipped areas sum to ``grid_w * grid_h``.
    Raises :class:`PackingError` otherwise.
    """
    placed = {v: t for v, t in tiles.items() if t is not None}
    covered = sum(t.clipped_area(grid_w, grid_h) for t in placed.values())
    expected = grid_w * grid_h
    if covered != expected:
        raise PackingError(
            f"tiles cover {covered} cells of a {grid_w} x {grid_h} grid "
            f"({expected} expected)"
        )
    total_area = sum(t.width * t.height for t in placed.values())
    return {
        "grid_cells": expected,
        "placed_tiles": len(placed),
        "unused_nodes": sum(1 for t in tiles.values() if t is None),
        "overhang_cells": total_area - covered,
        "utilization": expected / total_area if total_area else 1.0,
    }
