"""BalancedPackingTree (Algorithm 5) — sizing squares on a tree.

Two sweeps over the oriented tree G-dagger:

1. **bottom-up** (post-order): ``w~_v = w_v`` at leaves and
   ``min(w_v, sqrt(sum of children w~^2))`` internally — each subtree's
   effective capacity is capped by its own out-link;
2. **top-down** (pre-order): ``l_r = 1`` at the root and
   ``l_v = l_parent * w~_v / sqrt(sum over siblings w~^2)`` — the root's
   unit budget is divided among subtrees in proportion to capacity.

Each compute node then gets a square of dimension
``d_v = min{2^k >= N * l_v}``.  Lemma 8 gives the invariants tested in
``tests/core/cartesian``: ``w~_v <= w_v``; ``l_v <= w~_v / w~_r``;
``w~_r`` equals ``sqrt(sum w_u^2)`` over some minimal cover; and
``l_u^2`` sums over a subtree's compute leaves to the subtree's own
``l_u^2`` — so ``sum_{v in V_C} l_v^2 = 1`` and the squares always cover
the grid.

Subtrees holding no compute node are pruned before the sweeps: they can
receive no square, and their (possibly huge) link bandwidths must not
dilute the budget shares of real compute subtrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.core.cartesian.packing import shrink_dimensions
from repro.errors import ProtocolError
from repro.topology.dagger import Dagger
from repro.topology.tree import NodeId
from repro.util.intmath import next_power_of_two_at_least


@dataclass(frozen=True)
class TreePackingPlan:
    """Output of Algorithm 5: the per-node quantities and square sizes."""

    wtilde: dict
    share: dict  # the paper's l_v
    dims: dict  # compute node -> square dimension d_v (power of two)

    def dimension(self, node: NodeId) -> int:
        return self.dims[node]


def _compute_bearing(dagger: Dagger) -> dict:
    """``node -> True`` iff the node's G-dagger subtree has a compute node."""
    tree = dagger.tree
    bearing: dict = {}
    for node in dagger.postorder():
        bearing[node] = tree.is_compute_node(node) or any(
            bearing[child] for child in dagger.children(node)
        )
    return bearing


def balanced_packing_tree(dagger: Dagger, n_total: int) -> TreePackingPlan:
    """Run Algorithm 5 on the oriented tree for input size ``N = n_total``.

    Requires the G-dagger root to be a router (the compute-root case is
    served by gathering, see Section 4.1) and finite bandwidths on every
    compute-bearing link (normalize with ``virtual_bandwidth="sum"`` if
    the leaf transform introduced infinite links).
    """
    if dagger.root_is_compute:
        raise ProtocolError(
            "Algorithm 5 assumes the G-dagger root is a router; route all "
            "data to the compute root instead (Section 4.1)"
        )
    if n_total <= 0:
        raise ProtocolError("Algorithm 5 needs a non-empty input")
    bearing = _compute_bearing(dagger)
    if not bearing[dagger.root]:
        raise ProtocolError("topology has no compute nodes under the root")

    def children_of(node: NodeId) -> list:
        return [c for c in dagger.children(node) if bearing[c]]

    wtilde: dict = {}
    # pre-order, the last child's subtree first
    order = [node for node in reversed(dagger.postorder()) if bearing[node]]
    for node in reversed(order):  # post-order: children before parents
        children = children_of(node)
        if node != dagger.root:
            out_bw = dagger.out_bandwidth[node]
            if math.isinf(out_bw) and not children:
                raise ProtocolError(
                    f"compute leaf {node!r} has an infinite-bandwidth link; "
                    "normalize with virtual_bandwidth='sum' before packing"
                )
        if not children:
            wtilde[node] = dagger.out_bandwidth[node]
        else:
            children_value = math.sqrt(
                sum(wtilde[c] ** 2 for c in children)
            )
            if node == dagger.root:
                wtilde[node] = children_value
            else:
                wtilde[node] = min(dagger.out_bandwidth[node], children_value)

    share: dict = {dagger.root: 1.0}
    for node in order:  # pre-order: parents before children
        children = children_of(node)
        if not children:
            continue
        denominator = math.sqrt(sum(wtilde[c] ** 2 for c in children))
        for child in children:
            share[child] = share[node] * wtilde[child] / denominator

    dims = {
        node: next_power_of_two_at_least(n_total * share[node])
        for node in order
        if dagger.tree.is_compute_node(node)
    }
    # Trim the power-of-two overshoot while the area still covers the
    # grid; every bound in the Theorem 5 analysis is monotone in the
    # dimensions, so this only lowers cost (see shrink_dimensions).
    dims = shrink_dimensions(dims, n_total * n_total)
    return TreePackingPlan(wtilde=wtilde, share=share, dims=dims)
