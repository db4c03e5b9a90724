"""Shared result type for the closed-form lower bounds.

Every lower bound in the paper has the shape "maximize some per-link
expression over the links of the tree" (Theorems 1, 3, 6) or a global
expression (Theorem 4).  :class:`LowerBound` keeps the per-link values
alongside the maximum so reports can show *which* link is the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable


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
    def from_per_edge(per_edge: dict, description: str) -> "LowerBound":
        """Build the max-over-links bound from per-link values."""
        if not per_edge:
            return LowerBound(0.0, None, {}, description)
        bottleneck = max(per_edge, key=lambda e: per_edge[e])
        return LowerBound(
            value=float(per_edge[bottleneck]),
            bottleneck_edge=bottleneck,
            per_edge=dict(per_edge),
            description=description,
        )

    @staticmethod
    def from_shared_keys(tree, keys_by_node, description: str) -> "LowerBound":
        """Per-link shared-key counting: every key that compute nodes hold
        (``keys_by_node``) on both sides of a full-duplex link forces an
        element across, so ``cost(e) >= |shared keys| / (2 w_e)``."""
        per_edge = {
            edge: shared / (2.0 * tree.undirected_bandwidth(edge))
            for edge, shared in tree.shared_key_counts(keys_by_node).items()
        }
        return LowerBound.from_per_edge(per_edge, description)

    def ratio_of(self, cost: float) -> float:
        """``cost / value``; infinity when the bound is zero but cost is not."""
        if self.value > 0:
            return cost / self.value
        return 0.0 if cost == 0 else float("inf")
