"""Tests for the serve mix (repro.analysis.serve)."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import repro
from repro.analysis.serve import build_workload, strip_report
from repro.session import EngineSession
from tests.obs.shuffle import rack_tree


@pytest.fixture(scope="module")
def tree():
    return rack_tree(3)


class TestWorkload:
    def test_deterministic(self, tree):
        first = build_workload(tree, 32, rows=60, seed=7)
        second = build_workload(tree, 32, rows=60, seed=7)
        assert first[0] == second[0]  # _Query is a frozen dataclass

    def test_mix_shape(self, tree):
        workload, distributions, (catalog, plan_queries) = build_workload(
            tree, 32, rows=60, seed=7
        )
        plans = [q for q in workload if q.kind == "plan"]
        tasks = [q for q in workload if q.kind == "task"]
        assert len(workload) == 32
        assert len(plans) == 8  # every fourth query
        assert {q.task for q in tasks} == {
            "set-intersection",
            "equijoin",
            "groupby-aggregate",
            "sorting",
        }
        assert len(distributions) == 4
        # every placement sees traffic, and the task/placement pairing
        # rotates (not a fixed one-to-one lockstep)
        assert {q.distribution_index for q in tasks} == {0, 1, 2, 3}
        pairings = {(q.task, q.distribution_index) for q in tasks}
        assert len(pairings) > 4
        # the catalog serves both benchmark shapes
        assert {"R0", "F", "D1"} <= set(catalog)
        assert len(plan_queries) == 3

    def test_plan_queries_cycle(self, tree):
        workload, _, _ = build_workload(tree, 32, rows=60, seed=7)
        plan_indices = [q.query_index for q in workload if q.kind == "plan"]
        assert plan_indices == [0, 1, 2, 0, 1, 2, 0, 1]

    @pytest.mark.parametrize("num_queries", [0, 3, 4, 7, 24])
    def test_every_fourth_query_is_a_plan(self, tree, num_queries):
        workload, _, _ = build_workload(tree, num_queries, rows=30, seed=7)
        assert len(workload) == num_queries
        assert [q.kind == "plan" for q in workload] == [
            index % 4 == 3 for index in range(num_queries)
        ]
        assert sum(q.kind == "plan" for q in workload) == num_queries // 4

    def test_every_task_meets_every_placement(self, tree):
        # 21 queries hold 16 task slots: four laps of the four tasks,
        # the placement rotating by one per lap
        workload, _, _ = build_workload(tree, 21, rows=30, seed=7)
        pairings = [
            (q.task, q.distribution_index)
            for q in workload
            if q.kind == "task"
        ]
        assert len(pairings) == 16
        assert len(set(pairings)) == 16

    def test_query_seeds(self, tree):
        workload, _, _ = build_workload(tree, 40, rows=30, seed=7)
        for index, query in enumerate(workload):
            if query.kind == "task":
                assert query.seed == index % 7
        plan_seeds = [q.seed for q in workload if q.kind == "plan"]
        assert plan_seeds == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]

    def test_three_plan_shapes(self, tree):
        _, _, (catalog, plan_queries) = build_workload(
            tree, 4, rows=30, seed=7
        )
        shapes = [
            [scan.relation for scan in query.inputs]
            for query in plan_queries
        ]
        assert shapes == [
            ["R0", "R1", "R2"],
            ["F", "D1", "D2"],
            ["R0", "R1", "R2", "R3"],
        ]
        assert set(catalog) == {"R0", "R1", "R2", "R3", "F", "D1", "D2"}

    @pytest.mark.parametrize("rows", [30, 75])
    def test_placements_sized_by_rows(self, tree, rows):
        _, distributions, _ = build_workload(tree, 4, rows=rows, seed=7)
        for distribution in distributions:
            assert distribution.total("R") == rows
            assert distribution.total("S") == 2 * rows

    def test_seed_changes_inputs(self, tree):
        _, first, _ = build_workload(tree, 4, rows=30, seed=7)
        _, second, _ = build_workload(tree, 4, rows=30, seed=8)
        assert any(
            a.sizes("R") != b.sizes("R")
            or not np.array_equal(a.relation("R"), b.relation("R"))
            for a, b in zip(first, second)
        )


class TestWarmColdIdentity:
    def test_warm_session_replays_cold_runs(self, tree):
        workload, distributions, (catalog, plan_queries) = build_workload(
            tree, 16, rows=60, seed=7
        )

        cold = [
            repro.run(
                query.task,
                tree,
                distributions[query.distribution_index],
                seed=query.seed,
            )
            if query.kind == "task"
            else repro.run_plan(
                plan_queries[query.query_index], tree, catalog, seed=query.seed
            )
            for query in workload
        ]
        with EngineSession(tree, catalog=catalog) as session:
            warm = [
                session.run(
                    query.task,
                    distributions[query.distribution_index],
                    seed=query.seed,
                )
                if query.kind == "task"
                else session.run_plan(
                    plan_queries[query.query_index], seed=query.seed
                )
                for query in workload
            ]
        for query, cold_run, warm_run in zip(workload, cold, warm):
            assert strip_report(warm_run) == strip_report(cold_run), query
        assert session.artifact_cache.stats()["misses"] == 1
        # three plan shapes, each compiled once then served from cache
        assert session.plan_cache.stats()["misses"] == 3

    def test_cold_replay_is_deterministic(self, tree):
        workload, distributions, (catalog, plan_queries) = build_workload(
            tree, 8, rows=40, seed=3
        )

        def cold(query):
            if query.kind == "task":
                return repro.run(
                    query.task,
                    tree,
                    distributions[query.distribution_index],
                    seed=query.seed,
                )
            return repro.run_plan(
                plan_queries[query.query_index],
                tree,
                catalog,
                seed=query.seed,
            )

        for query in workload:
            assert strip_report(cold(query)) == strip_report(cold(query))


@dataclass(frozen=True)
class _Nested:
    values: np.ndarray
    pair: tuple
    meta: dict
    wall_time_s: float


class TestStripReport:
    def test_plan_report_stages_are_stripped(self, tree):
        _, _, (catalog, plan_queries) = build_workload(
            tree, 4, rows=40, seed=7
        )
        report = repro.run_plan(plan_queries[0], tree, catalog, seed=0)
        payload = strip_report(report)
        assert "wall_time_s" not in payload
        assert len(payload["stages"]) == len(report.stages)
        for stage in payload["stages"]:
            assert "wall_time_s" not in stage
            assert "metrics" not in stage

    def test_arrays_and_tuples_become_lists(self):
        payload = strip_report(
            _Nested(
                values=np.arange(3),
                pair=(1, (2, 3)),
                meta={"offsets": np.array([0, 2])},
                wall_time_s=0.5,
            )
        )
        assert payload == {
            "values": [0, 1, 2],
            "pair": [1, [2, 3]],
            "meta": {"offsets": [0, 2]},
        }

    def test_report_is_not_mutated(self, tree):
        dist = repro.random_distribution(
            tree, r_size=40, s_size=40, policy="uniform", seed=2
        )
        report = repro.run("sorting", tree, dist)
        before = report.wall_time_s
        assert before is not None
        strip_report(report)
        assert report.wall_time_s == before

    def test_wall_clock_is_the_only_difference(self, tree):
        dist = repro.random_distribution(
            tree, r_size=40, s_size=40, policy="uniform", seed=2
        )
        first = repro.run("equijoin", tree, dist, seed=1)
        second = repro.run("equijoin", tree, dist, seed=1)
        assert strip_report(first) == strip_report(second)
        assert strip_report(replace(first, wall_time_s=-1.0)) == (
            strip_report(first)
        )

    def test_strips_wall_clock_everywhere(self, tree):
        dist = repro.random_distribution(
            tree, r_size=80, s_size=80, policy="zipf", seed=1
        )
        report = repro.run("set-intersection", tree, dist)
        payload = strip_report(report)
        assert "wall_time_s" not in payload
        assert payload["cost"] == report.cost

        def no_wall(value):
            if isinstance(value, dict):
                assert "wall_time_s" not in value
                assert "metrics" not in value
                for inner in value.values():
                    no_wall(inner)
            elif isinstance(value, list):
                for inner in value:
                    no_wall(inner)

        no_wall(payload)
