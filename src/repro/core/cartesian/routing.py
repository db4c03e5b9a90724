"""Shared single-round routing of grid tiles (Sections 4.2-4.4).

Given the tile assignment, node ``v`` must receive the ``R`` elements
whose labels fall in its tile's column range and the ``S`` elements in
its row range.  Tiles stacked above each other share column ranges, so an
``R`` element usually has several destinations; each sender's slice of a
maximal label segment with a constant destination set is one multicast
group, and the simulator's Steiner routing carries each element across
each link once — the deduplication the Theorem 5 analysis counts.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.core.cartesian.grid import GridLabeling
from repro.core.cartesian.packing import Tile
from repro.errors import PackingError
from repro.sim.cluster import Cluster, RoundContext
from repro.topology.tree import NodeId
from repro.util.grouping import concat_ranges, owner_bounds

R_RECV = "cartesian.R.recv"
S_RECV = "cartesian.S.recv"


def axis_segments(
    tiles: Mapping[NodeId, Tile | None], axis: str, total: int
) -> list[tuple[int, int, frozenset]]:
    """Maximal label segments of one axis with a constant destination set.

    Returns ``(lo, hi, destinations)`` triples covering ``[0, total)``;
    raises :class:`PackingError` if any label has no destination, since
    the packing is then not a cover.
    """
    events: dict[int, int] = {0: 0, total: 0}
    ranges = []
    for node, tile in tiles.items():
        if tile is None:
            continue
        lo, hi = tile.r_range(total) if axis == "r" else tile.s_range(total)
        if lo < hi:
            ranges.append((lo, hi, node))
            events[lo] = 0
            events[hi] = 0
    boundaries = sorted(events)
    segments: list[tuple[int, int, frozenset]] = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        active = frozenset(
            node for (a, b, node) in ranges if a <= lo and hi <= b
        )
        if not active:
            raise PackingError(
                f"{axis.upper()}-labels [{lo}, {hi}) have no destination tile; "
                "the packing does not cover the grid"
            )
        segments.append((lo, hi, active))
    return segments


def route_axis(
    ctx: RoundContext,
    cluster: Cluster,
    labeling: GridLabeling,
    tiles: Mapping[NodeId, Tile | None],
    *,
    axis: str,
    source_tag: str,
    recv_tag: str,
) -> None:
    """Multicast every element of one relation to the tiles needing it.

    One registration: a group per ``(segment, owner)`` pair, in segment
    then label order, carrying the owner's slice of the segment to the
    segment's tiles.
    """
    total = labeling.total(axis)
    if total == 0:
        return
    position = cluster.artifacts.compute_position
    owners, values = cluster.column(source_tag)
    bounds = owner_bounds(owners, len(position))
    sources, starts, lengths, members, fanouts = [], [], [], [], []
    for lo, hi, destinations in axis_segments(tiles, axis, total):
        targets = sorted(map(position.__getitem__, destinations))
        for owner, local_lo, local_hi in labeling.owners_overlapping(
            axis, lo, hi
        ):
            sources.append(position[owner])
            starts.append(bounds[sources[-1]] + local_lo)
            lengths.append(local_hi - local_lo)
            members += targets
            fanouts.append(len(targets))
    lengths = np.array(lengths)
    ctx.exchange_multicast_column(
        sources,
        np.repeat(np.arange(len(lengths)), lengths),
        (np.array(members), np.cumsum([0, *fanouts])),
        values[concat_ranges(np.array(starts), lengths)],
        tag=recv_tag,
    )


def collect_outputs(
    cluster: Cluster,
    labeling: GridLabeling,
    tiles: Mapping[NodeId, Tile | None],
    *,
    materialize: bool,
) -> dict:
    """Per-node output description; verifies each tile got its exact slices."""
    outputs: dict = {}
    total_pairs = 0
    for node, tile in tiles.items():
        if tile is None:
            outputs[node] = {"num_pairs": 0}
            continue
        r_values = cluster.local(node, R_RECV)
        s_values = cluster.local(node, S_RECV)
        r_lo, r_hi = tile.r_range(labeling.r_total)
        s_lo, s_hi = tile.s_range(labeling.s_total)
        if len(r_values) != r_hi - r_lo or len(s_values) != s_hi - s_lo:
            raise PackingError(
                f"node {node!r} received {len(r_values)} R / {len(s_values)} S "
                f"elements but its tile spans {r_hi - r_lo} x {s_hi - s_lo}"
            )
        num_pairs = len(r_values) * len(s_values)
        total_pairs += num_pairs
        entry: dict = {
            "num_pairs": num_pairs,
            "r_range": (r_lo, r_hi),
            "s_range": (s_lo, s_hi),
        }
        if materialize and num_pairs:
            entry["pairs"] = np.stack(
                [
                    np.repeat(r_values, len(s_values)),
                    np.tile(s_values, len(r_values)),
                ],
                axis=1,
            )
        outputs[node] = entry
    expected = labeling.r_total * labeling.s_total
    if total_pairs != expected:
        raise PackingError(
            f"tiles enumerate {total_pairs} pairs, expected {expected}"
        )
    return outputs


def gather_all_pairs(
    cluster: Cluster,
    target: NodeId,
    *,
    r_tag: str,
    s_tag: str,
    materialize: bool,
) -> dict:
    """One round: every node ships both fragments to ``target``.

    Optimal whenever a single node already holds more than half the data
    (Lemma 7's first case) or is the G-dagger root (Section 4.1).
    """
    computes = cluster.compute_order
    with cluster.round() as ctx:
        for node in computes:
            if node == target:
                continue
            for tag, recv in ((r_tag, R_RECV), (s_tag, S_RECV)):
                local = cluster.local(node, tag)
                if len(local):
                    ctx.send(node, target, local, tag=recv)
    r_all = np.concatenate(
        [cluster.local(target, r_tag), cluster.local(target, R_RECV)]
    )
    s_all = np.concatenate(
        [cluster.local(target, s_tag), cluster.local(target, S_RECV)]
    )
    outputs = {node: {"num_pairs": 0} for node in computes}
    entry: dict = {"num_pairs": len(r_all) * len(s_all)}
    if materialize and entry["num_pairs"]:
        entry["pairs"] = np.stack(
            [np.repeat(r_all, len(s_all)), np.tile(s_all, len(r_all))],
            axis=1,
        )
    outputs[target] = entry
    return outputs
