"""The sorting lower bound (Theorem 6).

For every link ``e``, there is an initial placement with the given
per-node sizes — ranks interleaved odd/even across the traversal order,
built by :func:`repro.data.generators.adversarial_sorted_distribution` —
on which any correct sort must move ``Ω(min(sum_{V-e} N_v,
sum_{V+e} N_v))`` elements across ``e``.  The bound is therefore a
*distribution-size-aware worst case*: it is tight on the adversarial
placement (the Figure 5 benchmark demonstrates this), while friendly
placements (e.g. already sorted along the order) can of course be
cheaper.  Units are elements (tuples), as in the paper.
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
