"""The planner's estimators, one link and one node at a time: the reference model.

These are the bodies ``repro.plan.cost`` had before placement profiles
became vectors and the estimators one per-link array kernel: profiles
are ``{node: rows}`` dicts, every estimate walks
``tree.undirected_edges()`` with ``tree.bandwidth()`` / the link's
sides (``tests/model/paths.py``) per link, and each estimator redoes its
own ``side_weights``.  They are slow and obviously right.  Everything below
the imports is moved here unchanged (``CostModel`` is renamed
:class:`ReferenceCostModel`); :func:`reference_model` swaps it in under
the optimizer, so whole plans can be compiled the old way and compared
stage by stage with what the kernel produces.

One thing the kernel does differently on purpose: ``estimate_tree_cost``
below adds up ``total_weight`` over a dict built from the *set*
``tree.compute_nodes``, the kernel adds the same numbers in compute
order.  With integer-valued profiles both sums are exact; with
fractional ones they can differ in the last bit, and so can a tree
estimate that is not dominated by its per-link floor.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Mapping, Sequence

from repro.errors import PlanError
from repro.plan.cost import (
    TREE_COST_CALIBRATION,
    CostModel,
    RelationStats,
    placement_profile,
)
from repro.topology.tree import NodeId, TreeTopology, node_sort_key
from tests.model.paths import sides as compute_sides

# --------------------------------------------------------------------- #
# per-link shuffle estimates
# --------------------------------------------------------------------- #


def _shuffle_cost(
    tree: TreeTopology,
    profiles: Sequence[Mapping[NodeId, float]],
    destination_weights: Mapping[NodeId, float],
) -> float:
    """Expected ``max_e load(e) / w_e`` of hashing ``profiles`` by weight.

    Each element at node ``v`` is routed independently to node ``u``
    with probability proportional to ``destination_weights[u]``; the
    expected load of the directed link ``a -> b`` is then
    ``size(side of a) * P(destination on side of b)``.
    """
    total_weight = sum(destination_weights.values())
    if total_weight <= 0:
        return 0.0
    combined = {}
    for profile in profiles:
        for node, size in profile.items():
            combined[node] = combined.get(node, 0.0) + float(size)
    side_sizes = tree.side_weights(combined)
    side_weights = tree.side_weights(destination_weights)
    worst = 0.0
    for edge in tree.undirected_edges():
        a_size, b_size = side_sizes[edge]
        a_weight, b_weight = side_weights[edge]
        a, b = edge
        forward = a_size * (b_weight / total_weight) / tree.bandwidth(a, b)
        backward = b_size * (a_weight / total_weight) / tree.bandwidth(b, a)
        worst = max(worst, forward, backward)
    return worst


def _uniform_weights(tree: TreeTopology) -> dict:
    return {v: 1.0 for v in tree.compute_nodes}


def estimate_uniform_hash_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> float:
    """Expected stage cost of the uniform-hash baseline."""
    return _shuffle_cost(tree, profiles, _uniform_weights(tree))


def estimate_tree_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> float:
    """Estimated stage cost of the distribution-aware tree protocols.

    Expected load of a placement-weighted shuffle, floored by the
    Theorem-1-style per-link bound (for every link, any correct keyed
    protocol pays at least ``min(totals..., side sums) / w_e``), then
    scaled by :data:`TREE_COST_CALIBRATION`.
    """
    combined = {}
    for profile in profiles:
        for node, size in profile.items():
            combined[node] = combined.get(node, 0.0) + float(size)
    weights = {v: combined.get(v, 0.0) for v in tree.compute_nodes}
    if all(w <= 0 for w in weights.values()):
        return 0.0
    expectation = _shuffle_cost(tree, profiles, weights)
    totals = [sum(p.values()) for p in profiles]
    side_sizes = tree.side_weights(combined)
    bound = 0.0
    for edge in tree.undirected_edges():
        a_size, b_size = side_sizes[edge]
        cap = min(totals + [a_size, b_size])
        bound = max(bound, cap / tree.undirected_bandwidth(edge))
    return TREE_COST_CALIBRATION * max(expectation, bound)


def estimate_gather_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> tuple[float, NodeId]:
    """Exact stage cost of gathering everything at the best target."""
    combined = {v: 0.0 for v in tree.compute_nodes}
    for profile in profiles:
        for node, size in profile.items():
            combined[node] = combined.get(node, 0.0) + float(size)
    target = max(
        sorted(combined, key=node_sort_key), key=lambda v: combined[v]
    )
    side_sizes = tree.side_weights(combined)
    cost = 0.0
    for edge in tree.undirected_edges():
        a_side, b_side = compute_sides(tree, edge)
        a_size, b_size = side_sizes[edge]
        a, b = edge
        if target in b_side:
            cost = max(cost, a_size / tree.bandwidth(a, b))
        else:
            cost = max(cost, b_size / tree.bandwidth(b, a))
    return cost, target


# --------------------------------------------------------------------- #
# the stage-level cost model
# --------------------------------------------------------------------- #


class ReferenceCostModel:
    """Scores candidate ``(operator, protocol)`` stages on one topology.

    Estimates both the stage cost and the output *placement profile*
    (where the result rows land), which feeds the next stage's
    estimate — a gather stage leaves everything on one node, a uniform
    shuffle spreads it evenly, a weighted shuffle follows the data.
    """

    def __init__(self, tree: TreeTopology) -> None:
        self.tree = tree
        self._computes = sorted(tree.compute_nodes, key=node_sort_key)

    def _spread(self, rows: float, weights: Mapping[NodeId, float]) -> dict:
        total = sum(weights.values())
        if total <= 0:
            return {v: rows / len(self._computes) for v in self._computes}
        return {
            v: rows * weights.get(v, 0.0) / total for v in self._computes
        }

    def join_stage(
        self,
        left: RelationStats,
        right: RelationStats,
        protocol: str,
        out_rows: float,
    ) -> tuple[float, dict]:
        """``(estimated cost, output profile)`` of one join shuffle."""
        profiles = [left.profile, right.profile]
        if protocol == "gather":
            cost, target = estimate_gather_cost(self.tree, profiles)
            return cost, {target: out_rows}
        if protocol == "uniform-hash":
            cost = estimate_uniform_hash_cost(self.tree, profiles)
            return cost, self._spread(out_rows, _uniform_weights(self.tree))
        if protocol == "tree":
            cost = estimate_tree_cost(self.tree, profiles)
            combined = {
                v: left.profile.get(v, 0.0) + right.profile.get(v, 0.0)
                for v in self._computes
            }
            return cost, self._spread(out_rows, combined)
        raise PlanError(f"no cost estimator for join protocol {protocol!r}")

    def groupby_stage(
        self,
        child: RelationStats,
        groups: float,
        protocol: str,
    ) -> tuple[float, dict]:
        """``(estimated cost, output profile)`` of one aggregation stage.

        The tree and uniform-hash protocols pre-aggregate locally, so
        each node ships at most ``min(rows_v, groups)`` partials; the
        gather baseline ships raw tuples.
        """
        partials = {
            v: min(size, groups) for v, size in child.profile.items()
        }
        if protocol == "gather":
            cost, target = estimate_gather_cost(self.tree, [child.profile])
            return cost, {target: groups}
        if protocol == "uniform-hash":
            cost = estimate_uniform_hash_cost(self.tree, [partials])
            return cost, self._spread(groups, _uniform_weights(self.tree))
        if protocol == "tree":
            weights = {
                v: child.profile.get(v, 0.0) for v in self._computes
            }
            if all(w <= 0 for w in weights.values()):
                return 0.0, {v: 0.0 for v in self._computes}
            cost = _shuffle_cost(self.tree, [partials], weights)
            return cost, self._spread(groups, weights)
        raise PlanError(
            f"no cost estimator for group-by protocol {protocol!r}"
        )


# --------------------------------------------------------------------- #
# swapping it in under the optimizer
# --------------------------------------------------------------------- #


def as_mapping(tree: TreeTopology, profile) -> dict:
    """A profile vector as the ``{node: rows}`` dict the reference reads."""
    return dict(zip(tree.compute_nodes, profile.tolist()))


def _join_stages(self, lefts, rights, out_rows, protocols) -> list:
    """The stacked entry point, one reference stage per row."""
    reference = ReferenceCostModel(self.tree)
    scored = []
    for left, right, rows in zip(lefts, rights, out_rows):
        left, right = (
            RelationStats(rows=0.0, profile=as_mapping(self.tree, p))
            for p in (left, right)
        )
        stages = [reference.join_stage(left, right, p, rows) for p in protocols]
        scored.append([(cost, placement_profile(self.tree, out)) for cost, out in stages])
    return scored


def _groupby_stages(self, child, groups, protocols) -> list:
    reference = ReferenceCostModel(self.tree)
    child = RelationStats(rows=0.0, profile=as_mapping(self.tree, child))
    stages = [reference.groupby_stage(child, groups, p) for p in protocols]
    return [(cost, placement_profile(self.tree, out)) for cost, out in stages]


@contextmanager
def reference_model():
    """Run the enclosed ``optimize`` calls on the per-edge estimators."""
    kernels = (CostModel.join_stages, CostModel.groupby_stages)
    CostModel.join_stages, CostModel.groupby_stages = _join_stages, _groupby_stages
    try:
        yield
    finally:
        CostModel.join_stages, CostModel.groupby_stages = kernels
