"""Run a compiled physical plan stage by stage.

Each communication stage is dispatched through the engine to a
*registered* protocol — the executor never reimplements shuffles — and
so runs on a cluster of its own, which
:func:`~repro.engine.run_with_result` builds for it; the stages share
only the topology artifacts of the run scope.  For
a join stage it re-packs both input relations around the stage's join
key (key high, remaining columns as the payload), builds a fresh
:class:`~repro.data.distribution.Distribution` from the per-node
fragments, and runs the chosen ``equijoin`` protocol with
``materialize=True``; the materialized ``(key, left payload, right
payload)`` rows are unpacked back into a
:class:`~repro.plan.relation.PlacedRelation` *where the protocol left
them* — intermediate data never teleports between stages, exactly as
the model prices it.  Group-by stages ship ``(key, value)`` pairs
through a registered ``groupby-aggregate`` protocol the same way;
filters run locally and cost nothing, as computation does in the model.

Every stage contributes one :class:`~repro.report.RunReport` (cost,
rounds, the task's per-stage lower bound); the whole pipeline becomes a
:class:`~repro.report.PlanReport`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.data.distribution import Distribution
from repro.data.generators import merge_distributions
from repro.engine import run_with_result
from repro.errors import PlanError
from repro.obs.tracer import get_tracer
from repro.plan.optimizer import AGGREGATE_BITS, PhysicalPlan, PhysicalStage
from repro.plan.relation import PlacedRelation, Schema
from repro.queries.tuples import encode_tuples
from repro.report import PlanReport, RunReport
from repro.topology.tree import TreeTopology
from repro.util.seeding import derive_seed


def _empty_stage_report(
    stage: PhysicalStage, index: int, tree: TreeTopology, task: str
) -> RunReport:
    """A zero-cost row for a stage skipped because an input was empty."""
    return RunReport(
        task=task,
        protocol=stage.protocol or "local",
        topology=tree.name,
        placement=f"stage {index}",
        input_size=0,
        rounds=0,
        cost=0.0,
        lower_bound=0.0,
        meta={"skipped": "empty input"},
    )


def _execute_join(
    stage: PhysicalStage,
    index: int,
    tree: TreeTopology,
    left: PlacedRelation,
    right: PlacedRelation,
    *,
    seed: int,
) -> tuple[RunReport | None, PlacedRelation]:
    out_schema = stage.schema
    if left.total_rows == 0 or right.total_rows == 0:
        return None, PlacedRelation(out_schema, {})

    left_payload_schema = left.schema.drop(stage.left_column)
    right_payload_schema = right.schema.drop(stage.right_column)
    shared_bits = max(
        left_payload_schema.total_bits, right_payload_schema.total_bits
    )
    report, result = run_with_result(
        "equijoin",
        tree,
        merge_distributions(
            left.to_distribution(
                stage.left_column, tag="R", payload_bits=shared_bits
            ),
            right.to_distribution(
                stage.right_column, tag="S", payload_bits=shared_bits
            ),
        ),
        protocol=stage.protocol,
        seed=derive_seed(seed, "plan-stage", index),
        placement=f"stage {index}",
        payload_bits=shared_bits,
        materialize=True,
    )

    # the whole join's (key, left payload, right payload) rows, unpacked
    # once; each node's share stays where the protocol left it
    outputs = result.outputs
    pairs = outputs.pairs
    keys = pairs[:, 0]
    named = {stage.left_column: keys}
    named.update(
        zip(left_payload_schema.columns, left_payload_schema.unpack(pairs[:, 1]).T)
    )
    right_columns = dict(
        zip(right_payload_schema.columns, right_payload_schema.unpack(pairs[:, 2]).T)
    )
    keep = np.ones(len(pairs), dtype=bool)
    for left_name, right_name in stage.residual:
        # A residual condition may reuse the stage's join-key column
        # (e.g. A.a = B.b and A.a = B.c): that column was dropped
        # from the payload, but its values are exactly `keys`.
        right_values = (
            keys if right_name == stage.right_column else right_columns[right_name]
        )
        keep &= named[left_name] == right_values
    residual_right = {right_name for _, right_name in stage.residual}
    for name, values in right_columns.items():
        if name not in residual_right:
            named[name] = values
    produced = PlacedRelation.from_columns(
        out_schema,
        outputs.nodes,
        np.stack([named[c] for c in out_schema.columns], axis=1),
        outputs.pair_bounds,
    )
    return report, produced.select(keep) if stage.residual else produced


def _execute_groupby(
    stage: PhysicalStage,
    index: int,
    tree: TreeTopology,
    child: PlacedRelation,
    *,
    seed: int,
) -> tuple[RunReport | None, PlacedRelation]:
    out_schema = stage.schema
    if child.total_rows == 0:
        return None, PlacedRelation(out_schema, {})
    encoded = encode_tuples(
        child.column(stage.key),
        child.column(stage.agg_value),
        payload_bits=AGGREGATE_BITS,
    )
    report, result = run_with_result(
        "groupby-aggregate",
        tree,
        Distribution.from_columns(
            child.node_order, {"R": (encoded, child.offsets)}
        ),
        protocol=stage.protocol,
        seed=derive_seed(seed, "plan-stage", index),
        placement=f"stage {index}",
        op=stage.op,
        payload_bits=AGGREGATE_BITS,
    )
    # Array output contract: every node's groups arrive sorted by key,
    # so the stage output is a single stack — no boxing, no sort.
    groups = result.outputs
    return report, PlacedRelation.from_columns(
        out_schema,
        groups.nodes,
        np.stack([groups.keys_array, groups.values_array], axis=1),
        groups.bounds,
    )


def _stage_facts(stage: PhysicalStage, report: RunReport) -> dict:
    """A finished stage's span attributes: its actual cost and rounds,
    and the actual/estimated cost ratio (1.0 = the optimizer was exact).

    The registry folds the ratio into a fixed-bucket histogram, so a
    drifting cost model shows up as mass migrating out of the 0.75–1.5
    buckets over a service's lifetime — the planner counterpart of the
    round-level audit.
    """
    facts = {"cost": report.cost, "rounds": report.rounds}
    if stage.est_cost > 0 and report.cost > 0:
        facts["cost_ratio"] = report.cost / stage.est_cost
    return facts


def execute_plan(
    physical: PhysicalPlan,
    tree: TreeTopology,
    catalog: dict,
    *,
    seed: int = 0,
    keep_output: bool = False,
):
    """Execute ``physical`` on ``tree``; returns a :class:`PlanReport`.

    ``catalog`` must hold the base relations the plan scans.  With
    ``keep_output=True`` the final :class:`PlacedRelation` is returned
    alongside the report (for output inspection and the property
    tests' multiset comparison).
    """
    tracer = get_tracer()
    started = perf_counter()
    results: list[PlacedRelation] = []
    stage_reports: list[RunReport] = []
    with tracer.span(
        f"plan.execute {physical.query}",
        category="plan",
        query=physical.query,
        strategy=physical.strategy,
        topology=physical.topology,
        estimated_cost=physical.estimated_cost,
    ):
        for index, stage in enumerate(physical.stages):
            if stage.kind == "scan":
                relation = catalog.get(stage.relation)
                if relation is None:
                    raise PlanError(
                        f"catalog has no relation {stage.relation!r}"
                    )
                if tuple(relation.schema.columns) != stage.output_columns:
                    raise PlanError(
                        f"catalog relation {stage.relation!r} no longer "
                        "matches the compiled schema; re-run the optimizer"
                    )
                results.append(relation)
                continue
            if stage.kind == "filter":
                child = results[stage.inputs[0]]
                results.append(
                    child.filter(stage.column, stage.op, stage.value)
                )
                continue
            if stage.kind == "join":
                with tracer.span(
                    f"stage {index} join",
                    category="stage",
                    kind=stage.kind,
                    operator=stage.describe(),
                    protocol=stage.protocol or "local",
                    est_cost=stage.est_cost,
                    est_rows=stage.est_rows,
                ) as span:
                    report, produced = _execute_join(
                        stage,
                        index,
                        tree,
                        results[stage.inputs[0]],
                        results[stage.inputs[1]],
                        seed=seed,
                    )
                    if report is None:
                        report = _empty_stage_report(
                            stage, index, tree, "equijoin"
                        )
                    span.set(**_stage_facts(stage, report))
                stage_reports.append(report)
                results.append(produced)
                continue
            if stage.kind == "groupby":
                with tracer.span(
                    f"stage {index} groupby",
                    category="stage",
                    kind=stage.kind,
                    operator=stage.describe(),
                    protocol=stage.protocol or "local",
                    est_cost=stage.est_cost,
                    est_rows=stage.est_rows,
                ) as span:
                    report, produced = _execute_groupby(
                        stage,
                        index,
                        tree,
                        results[stage.inputs[0]],
                        seed=seed,
                    )
                    if report is None:
                        report = _empty_stage_report(
                            stage, index, tree, "groupby-aggregate"
                        )
                    span.set(**_stage_facts(stage, report))
                stage_reports.append(report)
                results.append(produced)
                continue
            raise PlanError(f"unknown stage kind {stage.kind!r}")

    output = results[physical.output]
    report = PlanReport(
        query=physical.query,
        strategy=physical.strategy,
        topology=physical.topology,
        stages=tuple(stage_reports),
        estimated_cost=physical.estimated_cost,
        output_rows=output.total_rows,
        meta={
            "stages": [
                {
                    "stage": i,
                    "operator": s.describe(),
                    "protocol": s.protocol or "local",
                    "est_rows": s.est_rows,
                    "est_cost": s.est_cost,
                }
                for i, s in enumerate(physical.stages)
            ],
        },
        wall_time_s=perf_counter() - started,
    )
    if keep_output:
        return report, output
    return report
