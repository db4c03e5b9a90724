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


def _totals(stack: np.ndarray) -> np.ndarray:
    """:func:`_total` of every row of ``stack``: the same Python ``sum``
    per row, never a NumPy reduction, so each equals the one-row total."""
    return np.array([sum(row) for row in stack.tolist()], dtype=np.float64)


class CostModel:
    """Scores candidate ``(operator, protocol)`` stages on one topology.

    Every estimate is a few array expressions over the per-link side
    sums (:meth:`TreeTopology.link_side_sums`) of a placement profile,
    a vector in ``tree.compute_nodes`` order.  Beside the
    stage cost the model estimates the output profile (where the result
    rows land), which feeds the next stage's estimate — a gather stage
    leaves everything on one node, a uniform shuffle spreads it evenly,
    a weighted shuffle follows the data.

    The estimators work on stacks: one profile, side sum and cost per
    row, so the optimizer scores a whole join step in one pass.  Every
    operation is elementwise or a per-row ``max`` / ``argmax``, and
    totals are :func:`_totals`, so a row's estimate is bit for bit the
    estimate of that row scored alone.
    """

    def __init__(self, tree: TreeTopology) -> None:
        self.tree = tree
        index = self._index = tree.routing_index
        self._computes = tree.compute_nodes
        self._forward = index.link_forward
        self._backward = index.link_backward
        self._uniform = np.ones((1, len(self._computes)))
        self._uniform_totals = _totals(self._uniform)
        self._uniform_sides = tree.link_side_sums(self._uniform)

    def shuffle_cost(
        self, sizes: tuple, weights: tuple, totals: np.ndarray
    ) -> np.ndarray:
        """Per row, expected ``max_e load(e) / w_e`` of hashing rows by weight.

        ``sizes`` and ``weights`` are the per-link side sums of the rows
        shipped and of the destination weights, ``totals`` the weights'
        totals (per row, or one for all): an element is routed to node ``u`` with probability
        proportional to ``u``'s weight, so the directed link ``a -> b``
        expects ``size(side of a) * P(destination on side of b)``.  A
        row whose weights total nothing costs nothing.
        """
        live = totals > 0
        share = np.where(live, totals, 1.0)[:, None]
        forward = sizes[0] * (weights[1] / share) / self._forward
        backward = sizes[1] * (weights[0] / share) / self._backward
        cost = np.maximum(forward.max(axis=1, initial=0.0), backward.max(axis=1, initial=0.0))
        return np.where(live, cost, 0.0)

    def uniform_hash_cost(self, sizes: tuple) -> np.ndarray:
        """Expected stage cost of the uniform-hash baseline, per row."""
        return self.shuffle_cost(sizes, self._uniform_sides, self._uniform_totals)

    def tree_cost(
        self,
        combined: np.ndarray,
        sizes: tuple,
        totals: np.ndarray,
        smallest: np.ndarray,
    ) -> np.ndarray:
        """Estimated stage cost of the distribution-aware tree protocols,
        per row: ``totals`` are the rows' :func:`_totals`, ``smallest``
        the total of the smallest input relation.

        Expected load of a placement-weighted shuffle, floored by the
        Theorem-1-style per-link bound (for every link, any correct keyed
        protocol pays at least ``min(totals..., side sums) / w_e``), then
        scaled by :data:`TREE_COST_CALIBRATION`.  A row that places
        nothing costs nothing.
        """
        live = (combined > 0).any(axis=1)
        if not live.any():
            return np.zeros(len(combined))
        expectation = self.shuffle_cost(sizes, sizes, totals)
        cap = np.minimum(np.minimum(*sizes), smallest[:, None])
        bound = (cap / self.tree.undirected_bandwidths()).max(axis=1, initial=0.0)
        return np.where(
            live, TREE_COST_CALIBRATION * np.maximum(expectation, bound), 0.0
        )

    def gather_cost(
        self, combined: np.ndarray, sizes: tuple
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the exact cost of gathering everything at the best
        target, and that target's position: the fullest node, the first
        of equals."""
        targets = np.argmax(combined, axis=1)
        facing = self._index.links_facing(self._index.compute_idx[targets])
        inbound = np.where(facing, sizes[0] / self._forward, sizes[1] / self._backward)
        return inbound.max(axis=1, initial=0.0), targets

    def _spread(
        self, rows: np.ndarray, weights: np.ndarray, totals: np.ndarray
    ) -> np.ndarray:
        """``rows`` (a column) spread in proportion to ``weights`` (one row
        per stage, or one for all), evenly where the weights total
        nothing."""
        live = (totals > 0)[:, None]
        share = np.where(live, totals[:, None], 1.0)
        return np.where(live, rows * weights / share, rows / weights.shape[1])

    def _at(self, targets: np.ndarray, rows: np.ndarray) -> np.ndarray:
        profiles = np.zeros((len(targets), len(self._computes)))
        profiles[np.arange(len(targets)), targets] = rows[:, 0]
        return profiles

    def join_stages(
        self, lefts: np.ndarray, rights: np.ndarray, out_rows, protocols
    ) -> list:
        """Per stage ``i`` of a stack — ``lefts[i]`` joined with
        ``rights[i]``, ``out_rows[i]`` rows out — the ``(estimated cost,
        output profile)`` of its shuffle under each of ``protocols``, all
        read off one stacked side-sum pass."""
        combined = lefts + rights
        sizes = self.tree.link_side_sums(combined)
        totals = _totals(combined)
        rows = np.array(out_rows, dtype=np.float64)[:, None]
        scored = []
        for protocol in protocols:
            if protocol == "gather":
                costs, targets = self.gather_cost(combined, sizes)
                profiles = self._at(targets, rows)
            elif protocol == "uniform-hash":
                costs = self.uniform_hash_cost(sizes)
                profiles = self._spread(rows, self._uniform, self._uniform_totals)
            elif protocol == "tree":
                smallest = np.minimum(_totals(lefts), _totals(rights))
                costs = self.tree_cost(combined, sizes, totals, smallest)
                profiles = self._spread(rows, combined, totals)
            else:
                raise PlanError(
                    f"no cost estimator for join protocol {protocol!r}"
                )
            scored.append(zip(costs.tolist(), profiles))
        return [list(stage) for stage in zip(*scored)]

    def groupby_stages(
        self, child: np.ndarray, groups: float, protocols
    ) -> list:
        """``(estimated cost, output profile)`` of one aggregation stage
        under each of ``protocols``.

        The tree and uniform-hash protocols pre-aggregate locally, so
        each node ships at most ``min(rows_v, groups)`` partials; the
        gather baseline ships raw tuples.
        """
        first, second = self.tree.link_side_sums(
            np.stack([child, np.minimum(child, groups)])
        )
        raw, partials = (first[:1], second[:1]), (first[1:], second[1:])
        stack, rows = child[None], np.array([[groups]], dtype=np.float64)
        stages = []
        for protocol in protocols:
            if protocol == "gather":
                costs, targets = self.gather_cost(stack, raw)
                profiles = self._at(targets, rows)
            elif protocol == "uniform-hash":
                costs = self.uniform_hash_cost(partials)
                profiles = self._spread(rows, self._uniform, self._uniform_totals)
            elif protocol == "tree":
                if not (child > 0).any():
                    stages.append((0.0, np.zeros(len(child))))
                    continue
                totals = _totals(stack)
                costs = self.shuffle_cost(partials, raw, totals)
                profiles = self._spread(rows, stack, totals)
            else:
                raise PlanError(
                    f"no cost estimator for group-by protocol {protocol!r}"
                )
            stages.append((costs.item(), profiles[0]))
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
    """``(model, smallest profile total, combined profile, its side
    sums)``, each for a one-row stack."""
    vectors = [placement_profile(tree, profile) for profile in profiles]
    combined = sum(vectors, np.zeros(tree.num_compute_nodes))[None]
    smallest = np.array([min(map(_total, vectors), default=0.0)])
    return CostModel(tree), smallest, combined, tree.link_side_sums(combined)


def estimate_uniform_hash_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> float:
    """Expected stage cost of the uniform-hash baseline."""
    model, _, _, sizes = _stage_input(tree, profiles)
    return model.uniform_hash_cost(sizes).item()


def estimate_tree_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> float:
    """Estimated stage cost of the distribution-aware tree protocols."""
    model, smallest, combined, sizes = _stage_input(tree, profiles)
    return model.tree_cost(combined, sizes, _totals(combined), smallest).item()


def estimate_gather_cost(
    tree: TreeTopology, profiles: Sequence[Mapping[NodeId, float]]
) -> tuple[float, NodeId]:
    """Exact stage cost of gathering everything at the best target."""
    model, _, combined, sizes = _stage_input(tree, profiles)
    (cost,), (target,) = model.gather_cost(combined, sizes)
    return cost.item(), tree.compute_nodes[target]
