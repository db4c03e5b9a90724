"""The sorting lower bound (Theorem 6).

For every link ``e``, there is an initial placement with the given
per-node sizes — ranks interleaved odd/even across the traversal order,
built by :func:`repro.data.generators.adversarial_sorted_distribution` —
on which any correct sort must move ``Ω(min(sum_{V-e} N_v,
sum_{V+e} N_v))`` elements across ``e``.  A link is full duplex and the
ledger charges its two directions apart, so the crossing may split over
them: the bound charges the link half the lighter side,
``min(...) / (2 w_e)``.  It is a *distribution-size-aware worst case*,
not tight within a constant: on the adversarial placement
``adversarial_sorted_distribution(two_level([3, 3]), total=4000)`` the
registered protocols cost 1.2-1.4x (TeraSort) and 1.4-1.6x (wTS) of it
over seeds 0-2, and 5x at ``total=40``; friendly placements (e.g. already
sorted along the order) can be cheaper than on the adversarial one.
Units are elements (tuples), as in the paper.
"""

from __future__ import annotations

from repro.core.common import LowerBound
from repro.data.distribution import Distribution
from repro.topology.tree import TreeTopology


def sorting_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
) -> LowerBound:
    """Instantiate Theorem 6 for one topology and per-node sizes."""
    tree.require_symmetric("the Theorem 6 lower bound")
    return LowerBound.from_lighter_sides(
        tree, distribution, ("R",), "Theorem 6 (sorting)"
    )
