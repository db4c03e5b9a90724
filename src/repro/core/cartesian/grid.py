"""Global labelling of R and S — the ``|R| x |S|`` output grid.

Section 4.2: fix a strict ordering of the compute nodes; each node labels
its local ``R`` elements with consecutive global indices (and likewise
for ``S``), so each output pair corresponds to a unique cell of the
``{0..|R|-1} x {0..|S|-1}`` grid.  The labelling is pure bookkeeping —
it is derived from the known fragment cardinalities, so every node can
compute it without communication.

We use zero-based, half-open ranges throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.data.distribution import Distribution
from repro.errors import ProtocolError
from repro.topology.tree import NodeId, TreeTopology


@dataclass(frozen=True)
class GridLabeling:
    """Label ranges per node for both relations.

    ``r_ranges[v] = (lo, hi)`` means node ``v`` initially holds the ``R``
    elements with global labels ``lo..hi-1``, in local storage order.
    """

    node_order: tuple
    r_ranges: dict
    s_ranges: dict
    r_total: int
    s_total: int

    @classmethod
    def from_distribution(
        cls,
        tree: TreeTopology,
        distribution: Distribution,
    ) -> "GridLabeling":
        """Label fragments following the tree's left-to-right node order."""
        order = tuple(tree.left_to_right_compute_order())
        r_ranges: dict = {}
        s_ranges: dict = {}
        r_offset = 0
        s_offset = 0
        for node in order:
            r_count = distribution.size(node, "R")
            s_count = distribution.size(node, "S")
            r_ranges[node] = (r_offset, r_offset + r_count)
            s_ranges[node] = (s_offset, s_offset + s_count)
            r_offset += r_count
            s_offset += s_count
        return cls(
            node_order=order,
            r_ranges=r_ranges,
            s_ranges=s_ranges,
            r_total=r_offset,
            s_total=s_offset,
        )

    def ranges(self, axis: str) -> dict:
        """Label ranges for one axis: ``"r"`` or ``"s"``."""
        if axis == "r":
            return dict(self.r_ranges)
        if axis == "s":
            return dict(self.s_ranges)
        raise ProtocolError(f"axis must be 'r' or 's', got {axis!r}")

    def total(self, axis: str) -> int:
        if axis == "r":
            return self.r_total
        if axis == "s":
            return self.s_total
        raise ProtocolError(f"axis must be 'r' or 's', got {axis!r}")

    def owners_overlapping(
        self, axis: str, lo: int, hi: int
    ) -> Iterator[tuple[NodeId, int, int]]:
        """Yield ``(node, local_lo, local_hi)`` for labels in ``[lo, hi)``.

        ``local_lo:local_hi`` indexes into the node's local fragment (in
        storage order), covering exactly the part of its label range that
        intersects ``[lo, hi)``.
        """
        ranges = self.r_ranges if axis == "r" else self.s_ranges
        for node in self.node_order:
            a, b = ranges[node]
            start = max(a, lo)
            stop = min(b, hi)
            if start < stop:
                yield node, start - a, stop - a
