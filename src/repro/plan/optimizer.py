"""Compile a logical plan into a physical protocol pipeline.

The optimizer makes the two decisions the logical algebra leaves open:

* **join order** — multi-way joins are flattened into their leaf inputs
  and every connected left-deep order is enumerated (chain and star
  queries have few inputs, so exhaustive enumeration is exact); each
  candidate order is scored by the estimated cost of its shuffle stages
  under the cardinality model of :mod:`repro.plan.cost`;
* **protocol per stage** — for every join and group-by stage, each
  protocol registered for the task (the paper's topology-aware ``tree``
  algorithms, the ``uniform-hash`` MPC baseline, the ``gather``
  baseline) is scored on the estimated placement profile of the stage's
  inputs, and the cheapest wins.

The search scores each distinct stage once.  A stage's estimate is a
pure function of its two input profiles and its output cardinality, so
one compile keeps a table of the stages it has scored: the prefix that
left-deep orders share is looked up, not re-scored.  Within one order,
the protocol beam keeps only the cheapest state per placement profile —
what a state can still add depends on its profile alone.

Three strategies share this machinery: ``optimized`` (min-cost order,
min-cost protocols), ``gather`` (the order as written, every stage the
gather baseline — the "ship everything to one node" plan), and
``worst-order`` (the max-cost order with min-cost protocols — isolating
what join ordering alone is worth).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from itertools import permutations
from weakref import WeakKeyDictionary

from repro.errors import PlanError
from repro.obs.tracer import get_tracer
from repro.plan.cost import (
    CostModel,
    RelationStats,
    cardinalities_of,
    filter_stats,
    groupby_stats,
    join_stats,
    stats_of,
)
from repro.plan.logical import Filter, GroupBy, Join, LogicalPlan, Scan
from repro.plan.relation import MAX_PAYLOAD_BITS, MAX_ROW_BITS, Schema
from repro.registry import protocols_for
from repro.topology.tree import TreeTopology
from repro.util.text import render_table

STRATEGIES = ("optimized", "gather", "worst-order")

# Exhaustive left-deep enumeration is exact but factorial; the planner
# targets the paper's chain/star benchmark queries, not 20-way joins.
MAX_JOIN_INPUTS = 8

# Beam width for per-order protocol-sequence search, counted in distinct
# placement profiles (a dominated state never enters the beam); 81 = 3^4
# keeps the search exhaustive up to four shuffle stages (five-way joins).
PROTOCOL_BEAM = 81

AGGREGATE_BITS = 40


@dataclass(frozen=True)
class PhysicalStage:
    """One step of the compiled pipeline.

    ``kind`` is ``"scan"``, ``"filter"``, ``"join"`` or ``"groupby"``;
    ``inputs`` are indices of earlier stages, and the stage's own index
    in :attr:`PhysicalPlan.stages` names its output.  ``est_rows`` and
    ``est_cost`` are the optimizer's predictions, kept so ``--explain``
    and the reports can show estimated against measured cost.
    """

    kind: str
    output_columns: tuple
    output_bits: tuple
    inputs: tuple = ()
    relation: str | None = None
    column: str | None = None
    op: str | None = None
    value: int | None = None
    left_column: str | None = None
    right_column: str | None = None
    residual: tuple = ()
    key: str | None = None
    agg_value: str | None = None
    protocol: str | None = None
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def schema(self) -> Schema:
        return Schema(self.output_columns, self.output_bits)

    def describe(self) -> str:
        if self.kind == "scan":
            return f"scan {self.relation}"
        if self.kind == "filter":
            return (
                f"filter #{self.inputs[0]} "
                f"({self.column} {self.op} {self.value})"
            )
        if self.kind == "join":
            residual = "".join(
                f", {a}={b}" for a, b in self.residual
            )
            return (
                f"join #{self.inputs[0]} ⋈ #{self.inputs[1]} on "
                f"{self.left_column}={self.right_column}{residual}"
            )
        return (
            f"groupby #{self.inputs[0]} key={self.key} "
            f"{self.op}({self.agg_value})"
        )


@dataclass(frozen=True)
class PhysicalPlan:
    """The compiled pipeline plus the optimizer's cost predictions."""

    query: str
    strategy: str
    topology: str
    stages: tuple
    output: int
    estimated_cost: float

    @property
    def output_schema(self) -> Schema:
        return self.stages[self.output].schema

    def shuffle_stages(self) -> list:
        """Indices of stages that actually communicate."""
        return [
            i
            for i, stage in enumerate(self.stages)
            if stage.kind in ("join", "groupby")
        ]

    def explain(self) -> str:
        """A human-readable physical plan, one row per stage."""
        rows = []
        for i, stage in enumerate(self.stages):
            rows.append(
                [
                    f"#{i}",
                    stage.describe(),
                    stage.protocol or "local",
                    f"{stage.est_rows:.0f}",
                    f"{stage.est_cost:.1f}",
                ]
            )
        return render_table(
            ["stage", "operator", "protocol", "est rows", "est cost"],
            rows,
            title=(
                f"{self.strategy} plan for {self.query} on {self.topology} "
                f"(estimated cost {self.estimated_cost:.1f})"
            ),
        )


# --------------------------------------------------------------------- #
# join flattening
# --------------------------------------------------------------------- #


def _flatten_join(join: Join) -> tuple[list, list]:
    """Expand directly nested joins into leaves + leaf-indexed conditions."""
    leaves: list = []
    conditions: list = []

    def expand(node: Join) -> list:
        spans = []
        for child in node.inputs:
            if isinstance(child, Join):
                spans.append(expand(child))
            else:
                leaves.append(child)
                spans.append([len(leaves) - 1])
        for cond in node.conditions:
            left_span = spans[cond.left_input]
            right_span = spans[cond.right_input]
            conditions.append(
                (left_span[0], cond.left_column, right_span[0], cond.right_column)
            )
        return [i for span in spans for i in span]

    expand(join)
    return leaves, conditions


# --------------------------------------------------------------------- #
# the compiler
# --------------------------------------------------------------------- #


class _Collision(Exception):
    """A merge whose output would hold the column ``args[0]`` twice."""


@dataclass
class _Candidate:
    """One simulated merge order: its stages-to-be and total cost."""

    order: tuple
    steps: list
    cost: float


class _Compiler:
    def __init__(
        self,
        tree: TreeTopology,
        catalog: dict,
        strategy: str,
    ) -> None:
        if strategy not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {strategy!r}; choose from {list(STRATEGIES)}"
            )
        self.tree = tree
        self.catalog = catalog
        self.strategy = strategy
        self.model = CostModel(tree)
        self.stages: list = []
        # (left profile, right profile, output rows) -> join_stages result;
        # one tree and one protocol tuple per compiler make it exact.
        self.stage_table: dict = {}
        self.join_protocols = self._candidates("equijoin", "join")
        self.groupby_protocols = self._candidates("groupby-aggregate", "groupby")

    def _candidates(self, task: str, operator: str) -> tuple:
        registered = set(protocols_for(task))
        supported = self.model.supported_protocols(operator)
        names = tuple(n for n in supported if n in registered)
        if not names:
            raise PlanError(
                f"no registered {task} protocol has a cost estimator"
            )
        return names

    def _emit(self, stage: PhysicalStage) -> int:
        self.stages.append(stage)
        return len(self.stages) - 1

    # -------------------------------------------------------------- #
    # node compilation
    # -------------------------------------------------------------- #

    def compile(self, plan: LogicalPlan) -> tuple[int, RelationStats, Schema]:
        if isinstance(plan, Scan):
            return self._compile_scan(plan)
        if isinstance(plan, Filter):
            return self._compile_filter(plan)
        if isinstance(plan, GroupBy):
            return self._compile_groupby(plan)
        if isinstance(plan, Join):
            return self._compile_join(plan)
        raise PlanError(f"unknown logical operator {plan!r}")

    def _compile_scan(self, plan: Scan) -> tuple[int, RelationStats, Schema]:
        relation = self.catalog.get(plan.relation)
        if relation is None:
            raise PlanError(
                f"catalog has no relation {plan.relation!r}; "
                f"it holds {sorted(map(str, self.catalog))}"
            )
        stats = stats_of(relation, self.tree)
        schema = relation.schema
        index = self._emit(
            PhysicalStage(
                kind="scan",
                relation=plan.relation,
                output_columns=schema.columns,
                output_bits=schema.bits,
                est_rows=stats.rows,
            )
        )
        return index, stats, schema

    def _compile_filter(self, plan: Filter) -> tuple[int, RelationStats, Schema]:
        child, child_stats, schema = self.compile(plan.child)
        schema.index(plan.column)  # validates the column exists
        stats = filter_stats(child_stats, plan.column, plan.op)
        index = self._emit(
            PhysicalStage(
                kind="filter",
                inputs=(child,),
                column=plan.column,
                op=plan.op,
                value=int(plan.value),
                output_columns=schema.columns,
                output_bits=schema.bits,
                est_rows=stats.rows,
            )
        )
        return index, stats, schema

    def _compile_groupby(self, plan: GroupBy) -> tuple[int, RelationStats, Schema]:
        child, child_stats, schema = self.compile(plan.child)
        key_bits = schema.width(plan.key)
        schema.index(plan.value)
        if key_bits > MAX_ROW_BITS - MAX_PAYLOAD_BITS:
            raise PlanError(
                f"group-by key {plan.key!r} is {key_bits} bits wide; the "
                f"shuffle encoding supports at most "
                f"{MAX_ROW_BITS - MAX_PAYLOAD_BITS} key bits"
            )
        groups = groupby_stats(child_stats, plan.key).rows
        protocol, cost, profile = self._pick_groupby_protocol(
            child_stats, groups
        )
        agg_bits = (
            schema.width(plan.value)
            if plan.op in ("min", "max")
            else AGGREGATE_BITS
        )
        columns = (plan.key, f"{plan.op}_{plan.value}")
        bits = (key_bits, agg_bits)
        stats = RelationStats(
            rows=groups, distinct={plan.key: groups}, profile=profile
        )
        index = self._emit(
            PhysicalStage(
                kind="groupby",
                inputs=(child,),
                key=plan.key,
                agg_value=plan.value,
                op=plan.op,
                protocol=protocol,
                output_columns=columns,
                output_bits=bits,
                est_rows=groups,
                est_cost=cost,
            )
        )
        return index, stats, Schema(columns, bits)

    def _pick_groupby_protocol(
        self, child_stats: RelationStats, groups: float
    ) -> tuple:
        """``(protocol, cost, output profile)``: the cheapest candidate,
        the first of equals."""
        protocols = (
            ("gather",) if self.strategy == "gather" else self.groupby_protocols
        )
        stages = self.model.groupby_stages(child_stats.profile, groups, protocols)
        return min(
            ((name, *stage) for name, stage in zip(protocols, stages)),
            key=lambda candidate: candidate[1],
        )

    # -------------------------------------------------------------- #
    # joins
    # -------------------------------------------------------------- #

    def _compile_join(self, plan: Join) -> tuple[int, RelationStats, Schema]:
        leaves, conditions = _flatten_join(plan)
        if len(leaves) > MAX_JOIN_INPUTS:
            raise PlanError(
                f"join has {len(leaves)} inputs; exhaustive ordering "
                f"supports at most {MAX_JOIN_INPUTS}"
            )
        compiled = [self.compile(leaf) for leaf in leaves]
        # Conditions that name a nested-join span refer to whichever of
        # its leaves holds the column; resolve by schema lookup.
        resolved = []
        for li, lcol, ri, rcol in conditions:
            resolved.append(
                (
                    self._owning_leaf(compiled, leaves, li, lcol),
                    lcol,
                    self._owning_leaf(compiled, leaves, ri, rcol),
                    rcol,
                )
            )
        candidate = self._choose_order(compiled, resolved)
        return self._emit_join_steps(compiled, candidate)

    def _owning_leaf(self, compiled, leaves, start: int, column: str) -> int:
        _, _, schema = compiled[start]
        if column in schema.columns:
            return start
        for i, (_, _, other) in enumerate(compiled):
            if column in other.columns:
                return i
        raise PlanError(f"no join input has column {column!r}")

    def _choose_order(self, compiled, conditions) -> _Candidate:
        k = len(compiled)
        collision: str | None = None

        def scored(order) -> _Candidate | None:
            nonlocal collision
            try:
                return self._simulate(compiled, conditions, order)
            except _Collision as error:
                collision = collision or error.args[0]
                return None

        if self.strategy == "gather":
            candidate = scored(tuple(range(k)))
            if candidate is not None:
                return candidate
        # min / max keep the first of equals, in permutation order
        pick = max if self.strategy == "worst-order" else min
        candidates = filter(None, map(scored, permutations(range(k))))
        best = pick(candidates, key=lambda candidate: candidate.cost, default=None)
        if best is None:
            if collision is not None:
                raise PlanError(
                    f"no join order avoids a repeated column: the output "
                    f"would hold {collision!r} twice; rename it in one "
                    f"of the inputs"
                )
            raise PlanError(
                "join inputs are not connected by the conditions; "
                "cross products are not supported"
            )
        return best

    def _simulate(self, compiled, conditions, order) -> _Candidate | None:
        """Score one merge order; ``None`` if some step lacks a condition.

        Raises :class:`_Collision` if every step has a condition but some
        step's output would repeat a column name.

        Phase one walks the merges and derives everything that does not
        depend on protocol choice: stage key pairs, residual equalities,
        output columns and cardinality estimates.  Phase two assigns a
        protocol to every stage by searching protocol *sequences* — a
        gather stage leaves all data on one node and makes every later
        stage nearly free, which no greedy per-stage choice can see.
        """
        steps = self._merge_walk(compiled, conditions, order)
        if steps is None:
            return None
        return self._assign_protocols(compiled, order, steps)

    def _merge_walk(self, compiled, conditions, order) -> list | None:
        first = order[0]
        merged = {first}
        stats = compiled[first][1]
        columns = list(compiled[first][2].columns)
        bits = list(compiled[first][2].bits)
        # Maps (leaf, original column) -> current column name, tracking
        # join-key merges so later conditions survive dropped columns.
        names = {
            (i, c): c for i, (_, _, schema) in enumerate(compiled)
            for c in schema.columns
        }
        steps = []
        repeated = None
        for new in order[1:]:
            pairs = []
            for li, lcol, ri, rcol in conditions:
                if li in merged and ri == new:
                    pairs.append((names[(li, lcol)], rcol))
                elif ri in merged and li == new:
                    pairs.append((names[(ri, rcol)], lcol))
            if not pairs:
                return None
            new_stats = compiled[new][1]
            new_schema = compiled[new][2]
            key_left, key_right = pairs[0]
            out = join_stats(stats, new_stats, pairs, [])
            dropped = {b for _, b in pairs}
            out_columns = [key_left] + [c for c in columns if c != key_left]
            out_bits = [
                max(
                    bits[columns.index(key_left)],
                    new_schema.width(key_right),
                )
            ] + [bits[columns.index(c)] for c in columns if c != key_left]
            for c in new_schema.columns:
                if c in dropped:
                    continue
                if c in out_columns and repeated is None:
                    repeated = c
                out_columns.append(c)
                out_bits.append(new_schema.width(c))
            for a, b in pairs:
                names[(new, b)] = a
            distinct = dict(out.distinct)
            for c in out_columns:
                if c not in distinct:
                    source = (
                        stats.distinct.get(c)
                        if c in columns
                        else new_stats.distinct.get(c)
                    )
                    distinct[c] = min(
                        float(source if source is not None else out.rows),
                        max(out.rows, 1.0),
                    )
            stats = RelationStats(rows=out.rows, distinct=distinct)
            steps.append(
                {
                    "new": new,
                    "left_column": key_left,
                    "right_column": key_right,
                    "residual": tuple(pairs[1:]),
                    "columns": tuple(out_columns),
                    "bits": tuple(out_bits),
                    "stats": stats,
                }
            )
            merged.add(new)
            columns, bits = out_columns, out_bits
        if repeated is not None:
            raise _Collision(repeated)
        return steps

    def _assign_protocols(self, compiled, order, steps) -> _Candidate:
        """Pick each stage's protocol by beam search over sequences.

        States carry the cost so far and the current placement profile
        (each protocol leaves the data somewhere different).  Of states
        with equal profiles only the first in the stable cost order is
        kept: every completion adds the same costs to both, so it stays
        at least as cheap and ahead of the others to the end.  A beam of
        :data:`PROTOCOL_BEAM` distinct profiles keeps the search
        exhaustive for every sequence length the benchmark queries reach
        (``3^m`` states fit the beam for ``m <= 4`` stages) and
        near-optimal beyond.
        """
        protocols = (
            ("gather",) if self.strategy == "gather" else self.join_protocols
        )
        # (cost so far, current profile, [(protocol, cost, profile) per step])
        states = [(0.0, compiled[order[0]][1].profile, [])]
        for step in steps:
            right = compiled[step["new"]][1].profile
            rows = step["stats"].rows
            right_key = right.tobytes()
            expanded = []
            for total, left, chosen in states:
                key = (left.tobytes(), right_key, rows)
                stages = self.stage_table.get(key)
                if stages is None:
                    stages = self.model.join_stages(left, right, rows, protocols)
                    self.stage_table[key] = stages
                for name, (cost, profile) in zip(protocols, stages):
                    expanded.append(
                        (total + cost, profile, chosen + [(name, cost, profile)])
                    )
            expanded.sort(key=lambda state: state[0])
            distinct: dict = {}
            for state in expanded:
                distinct.setdefault(state[1].tobytes(), state)
            states = list(distinct.values())[:PROTOCOL_BEAM]
        total, _, chosen = states[0]
        annotated = [
            {
                **step,
                "protocol": name,
                "cost": cost,
                "stats": RelationStats(
                    rows=step["stats"].rows,
                    distinct=step["stats"].distinct,
                    profile=profile,
                ),
            }
            for step, (name, cost, profile) in zip(steps, chosen)
        ]
        return _Candidate(order=tuple(order), steps=annotated, cost=total)

    def _emit_join_steps(
        self, compiled, candidate: _Candidate
    ) -> tuple[int, RelationStats, Schema]:
        current = compiled[candidate.order[0]][0]
        stats = compiled[candidate.order[0]][1]
        schema = compiled[candidate.order[0]][2]
        for step in candidate.steps:
            new_index = compiled[step["new"]][0]
            index = self._emit(
                PhysicalStage(
                    kind="join",
                    inputs=(current, new_index),
                    left_column=step["left_column"],
                    right_column=step["right_column"],
                    residual=step["residual"],
                    protocol=step["protocol"],
                    output_columns=step["columns"],
                    output_bits=step["bits"],
                    est_rows=step["stats"].rows,
                    est_cost=step["cost"],
                )
            )
            current = index
            stats = step["stats"]
            schema = Schema(step["columns"], step["bits"])
        return current, stats, schema


# --------------------------------------------------------------------- #
# plan cache
# --------------------------------------------------------------------- #


#: The most compiled plans a :class:`PlanCache` keeps.
PLAN_CACHE_ENTRIES = 128


class PlanCache:
    """A bounded, thread-safe LRU of compiled :class:`PhysicalPlan` s.

    A serving session sees the same handful of query *shapes* over and
    over; the left-deep order enumeration and per-stage protocol beam
    search are still the largest single part of a cold small plan
    (about 40% of a cold chain-3 / star-2 / chain-4 mix on a 144-leaf
    two-level tree), and their output depends only on the logical plan,
    the topology structure, and the catalog's placement statistics.  The cache key captures exactly those three
    (:meth:`key`): the logical plan's deterministic ``describe()``
    string, the structural :attr:`TreeTopology.fingerprint` (label-blind,
    so renamed builds of one network share plans), and a per-relation
    statistics digest — schema, row/distinct counts, and the per-node
    fragment profile — so *any* data movement or re-placement changes
    the key and misses, never serving a stale plan.  Cached plans are
    frozen dataclasses shared by reference.

    Every compiled plan is admitted; past :data:`PLAN_CACHE_ENTRIES`,
    the least recently used one is evicted.  Every lookup is a small
    ``cache`` span whose ``hits`` / ``misses`` attribute the metrics
    registry folds into ``repro_plan_cache_hits_total`` /
    ``_misses_total``.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[tuple, PhysicalPlan] = {}
        # Per-relation stats digests, keyed weakly by the PlacedRelation
        # object: relations are immutable containers, so one digest per
        # object lifetime is sound, and sessions pinning a catalog pay
        # the (row-scanning) digest once instead of per lookup.
        self._relation_digests: WeakKeyDictionary = WeakKeyDictionary()
        self.hits = 0
        self.misses = 0

    def _relation_digest(self, name: str, relation) -> str:
        digest = self._relation_digests.get(relation)
        if digest is None:
            rows, distinct = cardinalities_of(relation)
            hasher = hashlib.blake2b(digest_size=16)
            for part in (
                relation.schema.columns,
                relation.schema.bits,
                rows,
                sorted(distinct.items()),
                relation.node_order,
            ):
                hasher.update(repr(part).encode())
            hasher.update(relation.offsets.tobytes())
            digest = hasher.hexdigest()
            self._relation_digests[relation] = digest
        return f"{name}={digest}"

    def key(
        self,
        query: LogicalPlan,
        tree: TreeTopology,
        catalog: dict,
        strategy: str,
    ) -> tuple:
        """The (shape, topology, placement-stats, strategy) cache key."""
        with self._lock:
            catalog_part = tuple(
                self._relation_digest(name, catalog[name])
                for name in sorted(catalog)
            )
        return (query.describe(), tree.fingerprint, catalog_part, strategy)

    def lookup(self, key: tuple) -> PhysicalPlan | None:
        """The cached plan for ``key``, with LRU touch; ``None`` on miss."""
        with get_tracer().span(
            "plan_cache.lookup", category="cache", strategy=key[3]
        ) as span, self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.pop(key)
                self._entries[key] = plan
                self.hits += 1
                span.set(hits=1)
                return plan
            self.misses += 1
            span.set(misses=1)
            return None

    def admit(self, key: tuple, plan: PhysicalPlan) -> None:
        """Cache ``plan``, evicting the least recently used past the bound."""
        with self._lock:
            self._entries[key] = plan
            while len(self._entries) > PLAN_CACHE_ENTRIES:
                del self._entries[next(iter(self._entries))]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss counts and current size, for summaries."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


def optimize(
    query: LogicalPlan,
    tree: TreeTopology,
    catalog: dict,
    *,
    strategy: str = "optimized",
    cache: PlanCache | None = None,
) -> PhysicalPlan:
    """Compile ``query`` into a :class:`PhysicalPlan` for ``tree``.

    ``catalog`` maps base relation names to
    :class:`~repro.plan.relation.PlacedRelation` instances; their exact
    statistics seed the cardinality model.  ``strategy`` is one of
    ``optimized`` / ``gather`` / ``worst-order``.  With a
    :class:`PlanCache`, a repeated (shape, topology, placement) triple
    returns the previously compiled frozen plan without re-running the
    order/protocol search.
    """
    if cache is not None:
        key = cache.key(query, tree, catalog, strategy)
        cached = cache.lookup(key)
        if cached is not None:
            return cached
    compiler = _Compiler(tree, catalog, strategy)
    output, _, _ = compiler.compile(query)
    stages = tuple(compiler.stages)
    plan = PhysicalPlan(
        query=query.describe(),
        strategy=strategy,
        topology=tree.name,
        stages=stages,
        output=output,
        estimated_cost=sum(s.est_cost for s in stages),
    )
    if cache is not None:
        cache.admit(key, plan)
    return plan
