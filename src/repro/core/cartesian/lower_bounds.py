"""Cartesian-product lower bounds (Theorems 3 and 4).

Theorem 3 is a per-link *flow* bound: if a link cannot carry the lighter
side's data, that side must instead receive everything, so the lighter
side's data crosses every link.  The link is full duplex (the ledger
charges its two directions apart), so one direction carries at least
half of it: every link costs at least ``min(sum_{V-e} N_v, sum_{V+e}
N_v) / (2 w_e)``.

Theorem 4 is a *counting* bound: pick any minimal cover ``U`` of the
oriented tree G-dagger (other than the root alone); the subtrees rooted
at cover members are disjoint and must jointly enumerate all
``|R| x |S|`` pairs, yet the pairs producible inside a subtree are
quadratic in what its single out-link can carry — giving
``N / sqrt(sum_{u in U} w_u^2)``.  The strongest such bound uses the
cover minimizing ``sum w_u^2``, which
:func:`repro.topology.dagger.optimal_cover` computes in linear time.
Both bounds are in element (tuple) units, as in the paper.
"""

from __future__ import annotations

from repro.core.common import LowerBound
from repro.data.distribution import Distribution
from repro.topology.dagger import build_dagger, optimal_cover
from repro.topology.tree import TreeTopology


def _sizes(tree: TreeTopology, distribution: Distribution) -> dict:
    return {
        v: distribution.size(v, "R") + distribution.size(v, "S")
        for v in tree.compute_nodes
    }


def cartesian_lower_bound_flow(
    tree: TreeTopology,
    distribution: Distribution,
) -> LowerBound:
    """Instantiate Theorem 3 for one topology and placement."""
    tree.require_symmetric("the Theorem 3 lower bound")
    return LowerBound.from_lighter_sides(
        tree, distribution, ("R", "S"), "Theorem 3 (cartesian, flow)"
    )


def cartesian_lower_bound_cover(
    tree: TreeTopology,
    distribution: Distribution,
) -> LowerBound:
    """Instantiate Theorem 4 for one topology and placement.

    The theorem applies when the G-dagger root is *not* a compute node
    (when it is, gathering everything at the root already matches
    Theorem 3 and no counting bound is needed); in that case this
    returns a zero bound, which :func:`cartesian_lower_bound` then
    ignores in the maximum.
    """
    tree.require_symmetric("the Theorem 4 lower bound")
    sizes = _sizes(tree, distribution)
    total = sum(sizes.values())
    if total == 0 or len(tree.nodes) == 1:
        return LowerBound(0.0, description="Theorem 4 (trivial instance)")
    dagger = build_dagger(tree, sizes)
    if dagger.root_is_compute:
        return LowerBound(
            0.0, description="Theorem 4 (inapplicable: G-dagger root is a compute node)"
        )
    cover, denominator = optimal_cover(dagger)
    if denominator == 0 or denominator != denominator:  # 0 or NaN
        return LowerBound(0.0, description="Theorem 4 (degenerate cover)")
    return LowerBound(
        value=total / denominator,
        description=(
            f"Theorem 4 (cartesian, counting; cover of {len(cover)} nodes)"
        ),
    )


def cartesian_lower_bound(
    tree: TreeTopology,
    distribution: Distribution,
) -> LowerBound:
    """The stronger of Theorems 3 and 4 for one instance."""
    flow = cartesian_lower_bound_flow(tree, distribution)
    cover = cartesian_lower_bound_cover(tree, distribution)
    if cover.value > flow.value:
        return cover
    return flow
