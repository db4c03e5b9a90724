"""Cost and cardinality estimation for candidate physical operators.

The optimizer needs two numbers per candidate stage: *how many rows*
come out (cardinality, for join ordering) and *what the shuffle costs*
(for protocol choice).  Both come from statistics the model lets
protocols know in advance — per-node fragment sizes, relation
cardinalities and per-column distinct counts — combined with the
topology's link structure:

* **gather** is deterministic, so its estimate is exact: every element
  on the far side of a link crosses it toward the target;
* **uniform-hash** routes each element to a uniformly random compute
  node, so per-link loads are plain expectations;
* **tree** (the paper's distribution-aware protocols) hashes toward
  data-rich nodes; the estimate is the expected load of a
  placement-weighted shuffle, floored by the registry's Theorem-1-style
  lower bound on the stage instance — an estimate can be optimistic,
  but never below what any correct protocol must pay.

Cardinalities use the classic independence estimates: ``|A ⋈ B| ≈
|A||B| / max(d_A, d_B)`` per equality, distinct counts capped by the
estimated row count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import PlanError
from repro.plan.relation import PlacedRelation
from repro.topology.tree import NodeId, TreeTopology
from repro.util.grouping import sorted_unique

# The tree protocols replicate the smaller relation across the
# balanced-partition blocks, which a plain shuffle expectation misses;
# measured stage costs sit at 1.3-2x the max(expectation, bound)
# estimate across the standard suite (see bench_planner), so estimates
# are inflated by this calibration factor.  Erring high is deliberate:
# an optimistic tree estimate would beat the *exact* gather estimate in
# near-ties and lose at runtime, while a pessimistic one merely picks a
# baseline that performs as predicted.
TREE_COST_CALIBRATION = 1.8


@dataclass(frozen=True, eq=False)
class RelationStats:
    """Cardinality statistics for one (possibly estimated) relation.

    Attributes
    ----------
    rows:
        Total row count (estimated for intermediates, exact for bases).
    distinct:
        Estimated distinct values per column name.
    profile:
        Estimated rows per compute node — where the relation lives, the
        input the per-link cost estimators work from: a ``float64``
        vector in ``tree.compute_nodes`` order (see
        :func:`placement_profile`), ``None`` for a join output whose
        protocol is not chosen yet.
    """

    rows: float
    distinct: dict = field(default_factory=dict)
    profile: np.ndarray | None = None

    def distinct_of(self, column: str) -> float:
        value = self.distinct.get(column)
        if value is None:
            raise PlanError(f"no distinct-count statistic for {column!r}")
        return max(1.0, min(float(value), max(self.rows, 1.0)))


def placement_profile(
    tree: TreeTopology, sizes: Mapping[NodeId, float]
) -> np.ndarray:
    """``sizes`` as a vector in ``tree.compute_nodes`` order.

    The one way a node-keyed mapping enters the cost model: nodes it
    leaves out hold nothing, a key that is not a compute node of
    ``tree`` is an error, not a weight to drop or to count.
    """
    for node in sizes:
        if not tree.is_compute_node(node):
            raise PlanError(
                f"profile places rows on {node!r}, which is not a compute "
                f"node of {tree.name}"
            )
    return np.array(
        [sizes.get(v, 0.0) for v in tree.compute_nodes],
        dtype=np.float64,
    )


def cardinalities_of(relation: PlacedRelation) -> tuple[float, dict]:
    """Exact ``(rows, distinct count per column)`` of a base relation."""
    distinct = {
        name: len(sorted_unique(relation.column(name)))
        for name in relation.schema.columns
    }
    return float(relation.total_rows), distinct


def stats_of(relation: PlacedRelation, tree: TreeTopology) -> RelationStats:
    """Exact statistics of a base relation (the model's prior knowledge)."""
    rows, distinct = cardinalities_of(relation)
    if relation.node_order == tree.compute_nodes:  # laid out like the profile
        profile = np.diff(relation.offsets).astype(np.float64)
    else:
        profile = placement_profile(tree, relation.sizes())
    return RelationStats(rows=rows, distinct=distinct, profile=profile)


def join_stats(
    left: RelationStats,
    right: RelationStats,
    on: Sequence[tuple],
    out_columns: Sequence[str],
) -> RelationStats:
    """Estimated statistics of a binary equi-join's output."""
    if not on:
        raise PlanError("join estimate needs at least one column pair")
    rows = left.rows * right.rows
    for left_column, right_column in on:
        rows /= max(
            left.distinct_of(left_column), right.distinct_of(right_column)
        )
    joined = 0.0 if left.rows == 0 or right.rows == 0 else rows
    distinct = {}
    for name in out_columns:
        if name in left.distinct:
            base = left.distinct[name]
        elif name in right.distinct:
            base = right.distinct[name]
        else:
            raise PlanError(f"output column {name!r} came from neither side")
        distinct[name] = min(float(base), max(joined, 1.0))
    return RelationStats(rows=joined, distinct=distinct)


def filter_stats(stats: RelationStats, column: str, op: str) -> RelationStats:
    """Estimated statistics after ``column <op> value``."""
    d = stats.distinct_of(column)
    if op == "==":
        selectivity = 1.0 / d
    elif op == "!=":
        selectivity = (d - 1.0) / d
    else:
        selectivity = 1.0 / 3.0
    rows = stats.rows * selectivity
    distinct = {
        name: min(float(value), max(rows, 1.0))
        for name, value in stats.distinct.items()
    }
    if op == "==":
        distinct[column] = 1.0
    return RelationStats(
        rows=rows, distinct=distinct, profile=stats.profile * selectivity
    )


def groupby_stats(stats: RelationStats, key: str) -> RelationStats:
    """Estimated statistics after grouping on ``key``."""
    groups = stats.distinct_of(key) if stats.rows else 0.0
    return RelationStats(rows=groups, distinct={key: groups})


# --------------------------------------------------------------------- #
# the per-link cost model
# --------------------------------------------------------------------- #


def _total(profile: np.ndarray) -> float:
    """The rows of ``profile``, added up in compute order."""
    return sum(profile.tolist())


class CostModel:
    """Scores candidate ``(operator, protocol)`` stages on one topology.

    Every estimate is a few array expressions over the per-link side
    sums (:meth:`TreeTopology.link_side_sums`) of a placement profile,
    a vector in ``tree.compute_nodes`` order.  Beside the
    stage cost the model estimates the output profile (where the result
    rows land), which feeds the next stage's estimate — a gather stage
    leaves everything on one node, a uniform shuffle spreads it evenly,
    a weighted shuffle follows the data.
    """

    def __init__(self, tree: TreeTopology) -> None:
        self.tree = tree
        index = tree.routing_index
        self._computes = tree.compute_nodes
        self._forward = index.link_forward
        self._backward = index.link_backward
        self._uniform = np.ones(len(self._computes))
        self._uniform_sides = tree.link_side_sums(self._uniform)

    def shuffle_cost(
        self, sizes: tuple, weights: tuple, total_weight: float
    ) -> float:
        """Expected ``max_e load(e) / w_e`` of hashing rows by weight.

        ``sizes`` and ``weights`` are the per-link side sums of the rows
        shipped and of the destination weights: an element is routed to
        node ``u`` with probability proportional to ``u``'s weight, so
        the directed link ``a -> b`` expects ``size(side of a) *
        P(destination on side of b)``.
        """
        if total_weight <= 0:
            return 0.0
        forward = sizes[0] * (weights[1] / total_weight) / self._forward
        backward = sizes[1] * (weights[0] / total_weight) / self._backward
        return float(max(forward.max(initial=0.0), backward.max(initial=0.0)))

    def uniform_hash_cost(self, sizes: tuple) -> float:
        """Expected stage cost of the uniform-hash baseline."""
        return self.shuffle_cost(
            sizes, self._uniform_sides, float(len(self._computes))
        )

    def tree_cost(
        self, combined: np.ndarray, sizes: tuple, totals: Sequence[float]
    ) -> float:
        """Estimated stage cost of the distribution-aware tree protocols.

        Expected load of a placement-weighted shuffle, floored by the
        Theorem-1-style per-link bound (for every link, any correct keyed
        protocol pays at least ``min(totals..., side sums) / w_e``), then
        scaled by :data:`TREE_COST_CALIBRATION`.
        """
        if not (combined > 0).any():
            return 0.0
        expectation = self.shuffle_cost(sizes, sizes, _total(combined))
        cap = np.minimum(np.minimum(*sizes), min(totals))
        bound = (cap / self.tree.undirected_bandwidths()).max(initial=0.0)
        return TREE_COST_CALIBRATION * max(expectation, float(bound))

    def gather_cost(
        self, combined: np.ndarray, sizes: tuple
    ) -> tuple[float, int]:
        """Exact cost of gathering everything at the best target, and
        that target's position: the fullest node, the first of equals."""
        target = int(np.argmax(combined))
        inbound = np.where(
            self.tree.links_facing(self._computes[target]),
            sizes[0] / self._forward,
            sizes[1] / self._backward,
        )
        return float(inbound.max(initial=0.0)), target

    def _spread(self, rows: float, weights: np.ndarray) -> np.ndarray:
        total = _total(weights)
        if total <= 0:
            return np.full(len(weights), rows / len(weights))
        return rows * weights / total

    def _at(self, target: int, rows: float) -> np.ndarray:
        profile = np.zeros(len(self._computes))
        profile[target] = rows
        return profile

    def join_stages(
        self, left: np.ndarray, right: np.ndarray, out_rows: float, protocols
    ) -> list:
        """``(estimated cost, output profile)`` of one join shuffle under
        each of ``protocols``, all read off one combined side-sum."""
        combined = left + right
        sizes = self.tree.link_side_sums(combined)
        stages = []
        for protocol in protocols:
            if protocol == "gather":
                cost, target = self.gather_cost(combined, sizes)
                stages.append((cost, self._at(target, out_rows)))
            elif protocol == "uniform-hash":
                cost = self.uniform_hash_cost(sizes)
                stages.append((cost, self._spread(out_rows, self._uniform)))
            elif protocol == "tree":
                totals = [_total(left), _total(right)]
                cost = self.tree_cost(combined, sizes, totals)
                stages.append((cost, self._spread(out_rows, combined)))
            else:
                raise PlanError(
                    f"no cost estimator for join protocol {protocol!r}"
                )
        return stages

    def groupby_stages(
        self, child: np.ndarray, groups: float, protocols
    ) -> list:
        """``(estimated cost, output profile)`` of one aggregation stage
        under each of ``protocols``.

        The tree and uniform-hash protocols pre-aggregate locally, so
        each node ships at most ``min(rows_v, groups)`` partials; the
        gather baseline ships raw tuples.
        """
        raw = self.tree.link_side_sums(child)
        partials = self.tree.link_side_sums(np.minimum(child, groups))
        stages = []
        for protocol in protocols:
            if protocol == "gather":
                cost, target = self.gather_cost(child, raw)
                stages.append((cost, self._at(target, groups)))
            elif protocol == "uniform-hash":
                cost = self.uniform_hash_cost(partials)
                stages.append((cost, self._spread(groups, self._uniform)))
            elif protocol == "tree":
                if not (child > 0).any():
                    stages.append((0.0, np.zeros(len(child))))
                    continue
                cost = self.shuffle_cost(partials, raw, _total(child))
                stages.append((cost, self._spread(groups, child)))
            else:
                raise PlanError(
                    f"no cost estimator for group-by protocol {protocol!r}"
                )
        return stages

    def supported_protocols(self, operator: str) -> tuple:
        """Protocol names this model can score for ``operator``.

        Ordered by estimate confidence — ``gather`` is deterministic
        (its estimate is exact), the hash shuffles are expectations —
        so stable min-by-cost selection breaks ties toward the
        candidate whose estimate cannot be wrong.
        """
        if operator in ("join", "groupby"):
            return ("gather", "uniform-hash", "tree")
        raise PlanError(f"unknown operator kind {operator!r}")


# --------------------------------------------------------------------- #
# the estimators on node-keyed profiles
# --------------------------------------------------------------------- #


def _stage_input(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> tuple:
    """``(model, per-profile totals, combined profile, its side sums)``."""
    vectors = [placement_profile(tree, profile) for profile in profiles]
    combined = sum(vectors, np.zeros(tree.num_compute_nodes))
    totals = [_total(vector) for vector in vectors]
    return CostModel(tree), totals, combined, tree.link_side_sums(combined)


def estimate_uniform_hash_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> float:
    """Expected stage cost of the uniform-hash baseline."""
    model, _, _, sizes = _stage_input(tree, profiles)
    return model.uniform_hash_cost(sizes)


def estimate_tree_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> float:
    """Estimated stage cost of the distribution-aware tree protocols."""
    model, totals, combined, sizes = _stage_input(tree, profiles)
    return model.tree_cost(combined, sizes, totals)


def estimate_gather_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> tuple[float, NodeId]:
    """Exact stage cost of gathering everything at the best target."""
    model, _, combined, sizes = _stage_input(tree, profiles)
    cost, target = model.gather_cost(combined, sizes)
    return cost, tree.compute_nodes[target]
