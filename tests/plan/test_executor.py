"""Unit tests for the plan executor and its reports."""

from time import perf_counter

import numpy as np
import pytest

import repro
from repro.plan.executor import execute_plan
from repro.plan.logical import (
    Filter,
    GroupBy,
    Join,
    JoinCondition,
    Scan,
    chain_query,
    evaluate_reference,
)
from repro.plan.optimizer import optimize
from repro.plan.relation import PlacedRelation, Schema, chain_catalog
from repro.report import PlanReport
from repro.topology.builders import star, two_level


@pytest.fixture
def tree():
    return two_level([3, 3], leaf_bandwidth=[2.0, 1.0], uplink_bandwidth=1.0)


class TestExecution:
    def test_chain_matches_reference(self, tree):
        catalog = chain_catalog(
            tree, num_relations=3, rows=150, key_space=32, seed=7,
            policy="zipf",
        )
        query = chain_query(3)
        plan = optimize(query, tree, catalog)
        report, output = execute_plan(
            plan, tree, catalog, seed=2, keep_output=True
        )
        assert output.multiset() == evaluate_reference(query, catalog)
        assert report.output_rows == output.total_rows
        assert report.cost > 0
        assert len(report.stages) == 2  # two join shuffles

    def test_strategies_agree_on_answer(self, tree):
        catalog = chain_catalog(
            tree, num_relations=3, rows=120, key_space=16, seed=3
        )
        query = chain_query(3)
        reference = evaluate_reference(query, catalog)
        for strategy in ("optimized", "gather", "worst-order"):
            plan = optimize(query, tree, catalog, strategy=strategy)
            _, output = execute_plan(
                plan, tree, catalog, seed=5, keep_output=True
            )
            assert output.multiset() == reference, strategy

    def test_filter_then_join(self, tree):
        catalog = chain_catalog(
            tree, num_relations=2, rows=150, key_space=16, seed=1
        )
        query = Join(
            inputs=(Filter(Scan("R0"), "x0", "<=", 7), Scan("R1")),
            conditions=(JoinCondition(0, "x1", 1, "x1"),),
        )
        plan = optimize(query, tree, catalog)
        report, output = execute_plan(
            plan, tree, catalog, seed=1, keep_output=True
        )
        assert output.multiset() == evaluate_reference(query, catalog)
        assert len(report.stages) == 1

    def test_groupby_pipeline(self, tree):
        catalog = chain_catalog(
            tree, num_relations=2, rows=200, key_space=8, seed=2
        )
        query = GroupBy(chain_query(2), key="x2", value="x0", op="sum")
        plan = optimize(query, tree, catalog)
        report, output = execute_plan(
            plan, tree, catalog, seed=3, keep_output=True
        )
        assert output.multiset() == evaluate_reference(query, catalog)
        assert len(report.stages) == 2  # join + groupby

    def test_empty_input_short_circuits(self, tree):
        nodes = tree.left_to_right_compute_order()
        catalog = {
            "R0": PlacedRelation(Schema(("x0", "x1"), (8, 8)), {}),
            "R1": PlacedRelation(
                Schema(("x1", "x2"), (8, 8)),
                {nodes[0]: np.array([[1, 2]])},
            ),
        }
        query = chain_query(2)
        plan = optimize(query, tree, catalog)
        report, output = execute_plan(
            plan, tree, catalog, seed=0, keep_output=True
        )
        assert output.total_rows == 0
        assert report.cost == 0.0
        assert report.stages[0].meta.get("skipped") == "empty input"

    def test_residual_condition_on_join_key_column(self, tree):
        # Both conditions reference the same left column: the residual
        # equality must read the stage key, which is dropped from the
        # payload (regression: KeyError in _execute_join).
        nodes = tree.left_to_right_compute_order()
        catalog = {
            "A": PlacedRelation(
                Schema(("a", "p"), (8, 8)),
                {nodes[0]: np.array([[3, 10], [4, 11]])},
            ),
            "B": PlacedRelation(
                Schema(("b", "c"), (8, 8)),
                {nodes[1]: np.array([[3, 3], [4, 5]])},
            ),
        }
        query = Join(
            inputs=(Scan("A"), Scan("B")),
            conditions=(
                JoinCondition(0, "a", 1, "b"),
                JoinCondition(0, "a", 1, "c"),
            ),
        )
        plan = optimize(query, tree, catalog)
        _, output = execute_plan(
            plan, tree, catalog, seed=0, keep_output=True
        )
        assert output.multiset() == evaluate_reference(query, catalog)

    def test_wide_payload_groupby_verifies(self, tree):
        # Group-by over a relation whose value column exceeds the
        # default 20-bit payload width: the engine verifier must decode
        # with the stage's payload_bits (regression: false rejection).
        nodes = tree.left_to_right_compute_order()
        wide = 1 << 25
        catalog = {
            "W": PlacedRelation(
                Schema(("k", "v"), (8, 30)),
                {
                    nodes[0]: np.array([[1, wide], [2, wide + 1]]),
                    nodes[1]: np.array([[1, wide + 2], [3, 7]]),
                },
            )
        }
        query = GroupBy(Scan("W"), key="k", value="v", op="max")
        report, output = execute_plan(
            optimize(query, tree, catalog), tree, catalog,
            seed=0, keep_output=True,
        )
        assert output.multiset() == evaluate_reference(query, catalog)
        assert report.stages[0].task == "groupby-aggregate"

    def test_catalog_mismatch_detected(self, tree):
        catalog = chain_catalog(tree, num_relations=2, rows=50, seed=1)
        plan = optimize(chain_query(2), tree, catalog)
        swapped = dict(catalog)
        swapped["R0"] = catalog["R1"]
        with pytest.raises(repro.PlanError):
            execute_plan(plan, tree, swapped, seed=0)


class TestReports:
    def test_plan_report_totals_and_roundtrip(self, tree):
        catalog = chain_catalog(
            tree, num_relations=3, rows=120, key_space=16, seed=9
        )
        report = execute_plan(
            optimize(chain_query(3), tree, catalog), tree, catalog, seed=1
        )
        assert report.cost == pytest.approx(
            sum(stage.cost for stage in report.stages)
        )
        assert report.rounds == sum(s.rounds for s in report.stages)
        rebuilt = PlanReport.from_dict(report.to_dict())
        assert rebuilt.cost == pytest.approx(report.cost)
        assert rebuilt.strategy == report.strategy
        assert rebuilt.output_rows == report.output_rows
        assert "plan on" in report.summarize()

    def test_run_plan_facade(self, tree):
        catalog = chain_catalog(
            tree, num_relations=3, rows=100, key_space=16, seed=4
        )
        query = chain_query(3)
        report = repro.run_plan(query, tree, catalog, seed=1)
        assert isinstance(report, PlanReport)
        report2, output = repro.run_plan(
            query, tree, catalog, seed=1, keep_output=True
        )
        assert report2.cost == pytest.approx(report.cost)
        assert output.multiset() == evaluate_reference(query, catalog)

    @pytest.mark.parametrize("keep_output", [False, True])
    def test_run_plan_wall_time_covers_optimize(self, tree, keep_output):
        """``wall_time_s`` is what ``run_plan``'s caller waited for: the
        clock starts at entry, before ``optimize``, not in the executor."""
        catalog = chain_catalog(
            tree, num_relations=4, rows=100, key_space=16, seed=4
        )
        with repro.tracing() as tracer:
            entered = perf_counter()
            out = repro.run_plan(
                chain_query(4), tree, catalog, keep_output=keep_output
            )
            returned = perf_counter()
        report = out[0] if keep_output else out
        (execute,) = [
            e for e in tracer.events if e.name.startswith("plan.execute")
        ]
        # the clocks are read microseconds apart; optimizing a
        # four-relation chain takes far longer than that
        assert (
            execute.end - entered - 1e-4
            <= report.wall_time_s
            <= returned - entered
        )

    def test_stage_reports_carry_bounds(self, tree):
        catalog = chain_catalog(
            tree, num_relations=2, rows=200, key_space=16, seed=6
        )
        report = repro.run_plan(chain_query(2), tree, catalog, seed=2)
        (stage,) = report.stages
        assert stage.task == "equijoin"
        assert stage.lower_bound > 0
        assert stage.rounds == 1
