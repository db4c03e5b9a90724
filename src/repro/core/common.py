"""Shared result type for the closed-form lower bounds.

Every lower bound in the paper has the shape "maximize some per-link
expression over the links of the tree" (Theorems 1, 3, 6) or a global
expression (Theorem 4).  :class:`LowerBound` keeps the per-link values
alongside the maximum so reports can show *which* link is the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LowerBound:
    """A lower bound on the cost of any correct algorithm for one instance.

    Attributes
    ----------
    value:
        The bound, in element units (the same units as
        :attr:`repro.sim.protocol.ProtocolResult.cost`).
    bottleneck_edge:
        The canonical undirected link achieving the maximum, or ``None``
        for bounds that are not per-link maxima (Theorem 4) or when the
        bound is zero.
    per_edge:
        Per-link bound values (empty for non-per-link bounds).
    description:
        Which theorem the bound instantiates.
    """

    value: float
    bottleneck_edge: tuple | None = None
    per_edge: dict = field(default_factory=dict)
    description: str = ""

    @staticmethod
    def from_links(tree, per_link: np.ndarray, description: str) -> "LowerBound":
        """The max-over-links bound from one value per link of
        ``tree.undirected_edges()``; of equal maxima, the first link."""
        if not len(per_link):
            return LowerBound(0.0, None, {}, description)
        edges, values = tree.undirected_edges(), per_link.tolist()
        bottleneck = int(per_link.argmax())
        return LowerBound(
            value=float(values[bottleneck]),
            bottleneck_edge=edges[bottleneck],
            per_edge=dict(zip(edges, values)),
            description=description,
        )

    @staticmethod
    def from_lighter_sides(tree, distribution, tags, description, *, cap=None):
        """Per-link flow counting: what the lighter side of a link holds of
        relations ``tags`` (at most ``cap`` elements of it) must cross the
        link.  The link is full duplex, so the crossing may split over its
        two directions and one of them carries at least half:
        ``cost(e) >= min(sum_{V-e} N_v, sum_{V+e} N_v[, cap]) / (2 w_e)``."""
        sizes = distribution.sizes_over(tree.compute_nodes, *tags)
        lighter = np.minimum(*tree.link_side_sums(sizes))
        if cap is not None:
            lighter = np.minimum(lighter, cap)
        return LowerBound.from_links(
            tree, lighter / (2.0 * tree.undirected_bandwidths()), description
        )

    @staticmethod
    def from_shared_keys(tree, holders, keys, description: str) -> "LowerBound":
        """Per-link shared-key counting: every key that compute nodes hold
        (routing index ``holders[i]`` holding ``keys[i]``) on both sides
        of a full-duplex link forces an element across, so
        ``cost(e) >= |shared keys| / (2 w_e)``."""
        index = tree.routing_index
        shared = index.steiner_counts(holders, keys)[index.link_child]
        return LowerBound.from_links(
            tree, shared / (2.0 * tree.undirected_bandwidths()), description
        )

    def ratio_of(self, cost: float) -> float:
        """``cost / value``; infinity when the bound is zero but cost is not."""
        if self.value > 0:
            return cost / self.value
        return 0.0 if cost == 0 else float("inf")


def column_holders(tree, distribution, tag: str) -> np.ndarray:
    """The routing index of the node holding each element of
    ``distribution.column(tag)`` (canonical node order on both sides)."""
    distribution.validate_for(tree)
    return np.repeat(
        tree.routing_index.compute_idx, distribution.sizes_over(tree.compute_nodes, tag)
    )
