"""The set-intersection lower bound (Theorem 1).

For every link ``e`` of a symmetric tree, any algorithm computing
``R ∩ S`` must pay at least

    (1 / (2 w_e)) * min(|R|, |S|, sum_{v in V-e} N_v, sum_{v in V+e} N_v)

because the data on the two sides of ``e`` forms a two-party lopsided
set-disjointness instance whose only channel is ``e``; the channel is
full duplex (the ledger charges the two directions apart), so the
communication may split over the two directions and one of them carries
at least half of it.  The bound is the
maximum over links, holds for any number of rounds, and is expressed here
in element units (the paper states it in bits; both sides of every ratio
we report scale by the same bits-per-element factor).
"""

from __future__ import annotations

from repro.core.common import LowerBound
from repro.data.distribution import Distribution
from repro.topology.tree import TreeTopology


def intersection_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
) -> LowerBound:
    """Instantiate Theorem 1 for one topology and placement."""
    tree.require_symmetric("the Theorem 1 lower bound")
    return LowerBound.from_lighter_sides(
        tree,
        distribution,
        ("R", "S"),
        "Theorem 1 (set intersection)",
        cap=min(distribution.total("R"), distribution.total("S")),
    )
