"""Tests for the serve benchmark harness (repro.analysis.serve)."""

import json

import pytest

import repro
from repro.analysis.serve import (
    FULL_MIN_SPEEDUP,
    IDENTITY_ONLY_MIN_SPEEDUP,
    ServeCase,
    build_workload,
    check_serve_cases,
    serve_case,
    serve_table,
    strip_report,
    write_serve_trajectory,
)
from repro.analysis.speed import fat_tree
from repro.errors import AnalysisError
from repro.obs.regress import BANDS, check_trajectory_file


@pytest.fixture(scope="module")
def tree():
    return fat_tree(3)


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


class TestServeCase:
    def test_sim_case_is_identical_and_counted(self, tree):
        case = serve_case("tiny", tree, 16, rows=60, seed=7)
        assert case.identical
        assert case.num_queries == 16
        assert case.cost_elements > 0
        assert case.cold_seconds > 0 and case.warm_seconds > 0
        assert case.artifact_cache["misses"] == 1
        assert case.artifact_cache["hits"] >= 15
        # three plan shapes, each compiled once then served from cache
        assert case.plan_cache["misses"] == 3
        assert case.plan_cache["hits"] == 1

    def test_cost_elements_deterministic(self, tree):
        first = serve_case("tiny", tree, 12, rows=60, seed=7)
        second = serve_case("tiny", tree, 12, rows=60, seed=7)
        assert first.cost_elements == second.cost_elements

    def test_derived_rates(self):
        case = ServeCase(
            name="x",
            topology="t",
            num_queries=100,
            cold_seconds=4.0,
            warm_seconds=2.0,
        )
        assert case.cold_qps == 25.0
        assert case.warm_qps == 50.0
        assert case.speedup == 2.0
        payload = case.to_dict()
        assert payload["speedup"] == 2.0
        assert payload["min_speedup"] == IDENTITY_ONLY_MIN_SPEEDUP


class TestCheck:
    def _case(self, **overrides):
        fields = dict(
            name="x",
            topology="t",
            num_queries=10,
            cold_seconds=4.0,
            warm_seconds=1.0,
            identical=True,
        )
        fields.update(overrides)
        return ServeCase(**fields)

    def test_passes_on_good_case(self):
        check_serve_cases([self._case()])

    def test_identity_flip_fails(self):
        with pytest.raises(AnalysisError, match="diverged"):
            check_serve_cases([self._case(identical=False)])

    def test_slow_warm_path_fails(self):
        slow = self._case(warm_seconds=3.9, min_speedup=FULL_MIN_SPEEDUP)
        with pytest.raises(AnalysisError, match="throughput"):
            check_serve_cases([slow])

    def test_identity_only_case_skips_timing(self):
        crawl = self._case(
            warm_seconds=40.0, min_speedup=IDENTITY_ONLY_MIN_SPEEDUP
        )
        check_serve_cases([crawl])

    def test_explicit_budget_overrides_case(self):
        case = self._case(warm_seconds=3.0)
        check_serve_cases([case], min_speedup=1.0)
        with pytest.raises(AnalysisError):
            check_serve_cases([case], min_speedup=2.0)


class TestTrajectory:
    def test_write_and_sentinel(self, tree, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_SERVE_JSON", str(tmp_path / "serve.json"))
        cases = [serve_case("tiny", tree, 12, rows=60, seed=7)]
        path = write_serve_trajectory(cases, grid="small")
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "bench_serve"
        assert payload["runs"][0]["grid"] == "small"
        entry = payload["runs"][0]["cases"][0]
        assert entry["identical"] is True
        assert entry["speedup"] > 0
        # the sentinel has bands for this file and sees no regression
        # in a single-run trajectory
        assert "bench_serve" in BANDS
        verdict, _ = check_trajectory_file(path)
        assert verdict == "pass"

    def test_sentinel_fails_identity_flip(self, tree, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_SERVE_JSON", str(tmp_path / "serve.json"))
        case = serve_case("tiny", tree, 12, rows=60, seed=7)
        write_serve_trajectory([case], grid="small")
        case.identical = False
        path = write_serve_trajectory([case], grid="small")
        verdict, checks = check_trajectory_file(path)
        assert verdict == "fail"
        assert any(
            c.metric == "identical" and c.verdict == "fail" for c in checks
        )

    def test_sentinel_warns_on_speedup_regression(
        self, tree, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("BENCH_SERVE_JSON", str(tmp_path / "serve.json"))
        case = serve_case("tiny", tree, 12, rows=60, seed=7)
        baseline = ServeCase(
            name=case.name,
            topology=case.topology,
            num_queries=case.num_queries,
            cold_seconds=10.0,
            warm_seconds=1.0,
            identical=True,
            cost_elements=case.cost_elements,
        )
        write_serve_trajectory([baseline], grid="small")
        regressed = ServeCase(
            name=case.name,
            topology=case.topology,
            num_queries=case.num_queries,
            cold_seconds=10.0,
            warm_seconds=5.0,
            identical=True,
            cost_elements=case.cost_elements,
        )
        path = write_serve_trajectory([regressed], grid="small")
        verdict, checks = check_trajectory_file(path)
        assert verdict in ("warn", "fail")
        assert any(
            c.metric == "speedup" and c.verdict in ("warn", "fail")
            for c in checks
        )


class TestTable:
    def test_serve_table_rows(self, tree):
        case = serve_case("tiny", tree, 8, rows=60, seed=7)
        headers, rows = serve_table([case])
        assert headers[0] == "workload"
        assert rows[0][0] == "tiny"
        assert rows[0][-1] == "yes"


class TestStripReport:
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
