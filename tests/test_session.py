"""Tests for the session-scoped engine (repro.session)."""

import dataclasses

import pytest

import repro
from repro import registry
from repro.errors import AnalysisError
from repro.plan import PlanCache, chain_catalog, chain_query
from repro.session import EngineSession
from repro.context import current
from repro.topology.builders import two_level


@pytest.fixture(scope="module")
def tree():
    return two_level([3, 3], uplink_bandwidth=2.0)


@pytest.fixture(scope="module")
def dist(tree):
    return repro.random_distribution(
        tree, r_size=300, s_size=300, policy="zipf", seed=4
    )


def _strip(report):
    payload = report.to_dict()
    payload.pop("wall_time_s", None)
    payload.pop("metrics", None)
    return payload


def test_module_quick_start_runs(capsys):
    """The ``Quick start::`` block of the module docstring executes
    as written, given a ``workload`` of distributions on its tree."""
    import textwrap

    import repro.session

    _, _, block = repro.session.__doc__.partition("Quick start::\n")
    lines = []
    for line in block.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line)
    code = textwrap.dedent("\n".join(lines))
    quick_tree = repro.fat_tree(2, 4)
    workload = [
        repro.random_distribution(
            quick_tree, r_size=60, s_size=60, policy="uniform", seed=seed
        )
        for seed in (1, 2)
    ]
    exec(code, {"workload": workload})
    assert "'runs': 2" in capsys.readouterr().out


class TestSessionRuns:
    def test_warm_run_matches_cold_run(self, tree, dist):
        cold = repro.run("set-intersection", tree, dist, seed=2)
        with EngineSession(tree) as session:
            warm = session.run("set-intersection", dist, seed=2)
        assert _strip(warm) == _strip(cold)

    def test_repeated_runs_hit_artifact_cache(self, tree, dist):
        with EngineSession(tree) as session:
            for _ in range(3):
                session.run("set-intersection", dist)
            stats = session.artifact_cache.stats()
        # one miss at construction, every run a hit
        assert stats["misses"] == 1
        assert stats["hits"] >= 3

    def test_pinned_distribution_default(self, tree, dist):
        with EngineSession(tree, distribution=dist) as session:
            report = session.run("set-intersection")
        cold = repro.run("set-intersection", tree, dist)
        assert _strip(report) == _strip(cold)

    def test_missing_distribution_raises(self, tree):
        with EngineSession(tree) as session:
            with pytest.raises(AnalysisError, match="no distribution"):
                session.run("set-intersection")

    def test_run_with_result_returns_outputs(self, tree, dist):
        with EngineSession(tree) as session:
            report, result = session.run_with_result("set-intersection", dist)
        assert report.cost == result.cost

    def test_closed_session_rejects_everything(self, tree, dist):
        session = EngineSession(tree)
        session.close()
        with pytest.raises(AnalysisError, match="closed"):
            session.run("set-intersection", dist)
        with pytest.raises(AnalysisError, match="closed"):
            session.run_many([])
        with pytest.raises(AnalysisError, match="closed"):
            session.lower_bound({"task": "set-intersection", "distribution": dist})

    def test_session_scope_does_not_leak_cache(self, tree, dist):
        with EngineSession(tree) as session:
            session.run("set-intersection", dist)
        assert current().artifacts is None

    def test_each_session_owns_its_artifact_cache(self, tree, dist):
        with EngineSession(tree) as first:
            first.run("set-intersection", dist)
        with EngineSession(tree) as second:
            second.run("set-intersection", dist)
            stats = second.artifact_cache.stats()
        assert second.artifact_cache is not first.artifact_cache
        # the second session built its own artifacts once, then hit
        assert stats["misses"] == 1
        assert stats["hits"] >= 1


def _collection_sizes(root) -> dict:
    """``len`` of every builtin container reachable through attributes."""
    sizes, seen = {}, set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, (dict, set, list)):
            sizes[path] = len(obj)
        for name, value in getattr(obj, "__dict__", {}).items():
            walk(value, f"{path}.{name}")

    walk(root, "artifacts")
    return sizes


class TestSessionMemory:
    def test_components_queries_leave_no_growing_per_tree_state(self, tree):
        """Every query has its own subscriber sets; whatever the pinned
        tree's artifacts keep must not grow with the queries served."""
        with EngineSession(tree) as session:
            sizes = []
            for seed in range(3):
                graph = repro.random_graph_distribution(
                    tree, num_edges=300, num_vertices=60, policy="zipf", seed=seed
                )
                session.run("connected-components", graph, seed=seed)
                sizes.append(_collection_sizes(session.artifact_cache.get(tree)))
        assert sizes[0]  # the walk does see the artifacts' containers
        for later in sizes[1:]:
            assert later.keys() == sizes[0].keys()
            assert all(later[path] <= sizes[0][path] for path in later)


class TestSessionPlans:
    def test_run_plan_uses_session_cache(self, tree):
        catalog = chain_catalog(tree, num_relations=3, rows=200, seed=0)
        query = chain_query(3)
        with EngineSession(tree, catalog=catalog) as session:
            first = session.run_plan(query)
            second = session.run_plan(query)
            stats = session.plan_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert first.cost == second.cost

    def test_cached_plan_matches_module_level(self, tree):
        catalog = chain_catalog(tree, num_relations=3, rows=200, seed=0)
        query = chain_query(3)
        cold = repro.run_plan(query, tree, catalog)
        with EngineSession(tree, catalog=catalog) as session:
            session.run_plan(query)  # populate the cache
            warm = session.run_plan(query)  # execute the cached plan
        assert warm.cost == cold.cost
        assert warm.rounds == cold.rounds
        assert [s.protocol for s in warm.stages] == [
            s.protocol for s in cold.stages
        ]

    def test_missing_catalog_raises(self, tree):
        with EngineSession(tree) as session:
            with pytest.raises(AnalysisError, match="no catalog"):
                session.run_plan(chain_query(3))

    def test_plan_cache_is_private_to_a_session(self, tree):
        catalog = chain_catalog(tree, num_relations=3, rows=200, seed=0)
        with EngineSession(tree, catalog=catalog) as one:
            one.run_plan(chain_query(3))
        with EngineSession(tree, catalog=catalog) as two:
            two.run_plan(chain_query(3))
            # a call cannot bring its own cache either
            with pytest.raises(TypeError, match="plan_cache"):
                two.run_plan(chain_query(3), plan_cache=PlanCache())
        assert two.plan_cache is not one.plan_cache
        assert two.plan_cache.stats()["hits"] == 0
        assert two.plan_cache.stats()["misses"] == 1


class TestRunMany:
    def _batch(self, dist, tasks=("set-intersection", "sorting", "equijoin")):
        return [{"task": task, "distribution": dist} for task in tasks]

    def test_results_in_submission_order(self, tree, dist):
        batch = self._batch(dist)
        with EngineSession(tree) as session:
            reports = session.run_many(batch)
        cold = repro.run_many(
            [dict(plan, tree=tree) for plan in batch]
        )
        assert [r.task for r in reports] == [p["task"] for p in batch]
        for warm, cold_report in zip(reports, cold):
            assert _strip(warm) == _strip(cold_report)

    def test_without_max_bound_each_bound_is_computed_once(
        self, tree, dist, monkeypatch
    ):
        # only the runs compute bounds: no pass over the batch up front
        batch = self._batch(dist)
        calls = []
        for plan in batch:
            spec = registry.get_task(plan["task"])

            def counting(*args, _spec=spec, **kwargs):
                calls.append(_spec.name)
                return _spec.lower_bound(*args, **kwargs)

            monkeypatch.setitem(
                registry._TASK_SPECS,
                spec.name,
                dataclasses.replace(spec, lower_bound=counting),
            )
        with EngineSession(tree) as session:
            reports = session.run_many(batch)
        assert sorted(calls) == sorted(plan["task"] for plan in batch)
        assert all(report is not None for report in reports)

    def test_max_bound_rejects_expensive_plans(self, tree, dist):
        batch = self._batch(dist)
        with EngineSession(tree) as session:
            bounds = [session.lower_bound(plan) for plan in batch]
            budget = sorted(bounds)[0]  # admit only the cheapest
            reports = session.run_many(batch, max_bound=budget)
            summary = session.summary()
        admitted = [i for i, b in enumerate(bounds) if b <= budget]
        for index, report in enumerate(reports):
            if index in admitted:
                assert report is not None
                assert report.task == batch[index]["task"]
            else:
                assert report is None
        assert summary["rejected"] == len(batch) - len(admitted)
        assert summary["batches"] == 1

    def test_lower_bound_matches_report_bound(self, tree, dist):
        with EngineSession(tree) as session:
            bound = session.lower_bound(
                {"task": "set-intersection", "distribution": dist}
            )
            report = session.run("set-intersection", dist)
        assert bound == pytest.approx(report.lower_bound)

    def test_pinned_distribution_fills_batch(self, tree, dist):
        with EngineSession(tree, distribution=dist) as session:
            reports = session.run_many([{"task": "set-intersection"}])
        assert reports[0] is not None
        cold = repro.run("set-intersection", tree, dist)
        assert _strip(reports[0]) == _strip(cold)


class TestProcessBackend:
    def test_call_site_process_backend_identical_to_sim(self, tree, dist):
        cold = repro.run("set-intersection", tree, dist, seed=2)
        with EngineSession(tree) as session:
            warm = session.run(
                "set-intersection", dist, seed=2, backend="process", num_workers=2
            )
        assert warm.cost == cold.cost
        assert warm.rounds == cold.rounds
        assert warm.meta["result"] == cold.meta["result"]

    @pytest.mark.parametrize("pinned", [{"backend": "process"}, {"num_workers": 2}])
    def test_backend_is_chosen_per_call_not_pinned(self, tree, pinned):
        with pytest.raises(TypeError, match=next(iter(pinned))):
            EngineSession(tree, **pinned)


class TestSummary:
    def test_summary_counts(self, tree, dist):
        catalog = chain_catalog(tree, num_relations=3, rows=200, seed=0)
        with EngineSession(tree, catalog=catalog) as session:
            session.run("set-intersection", dist)
            session.run_plan(chain_query(3))
            session.run_many(
                [{"task": "sorting", "distribution": dist}] * 2
            )
            summary = session.summary()
        assert summary["topology"] == tree.name
        assert summary["fingerprint"] == session.artifact_cache.get(
            tree
        ).fingerprint
        assert summary["runs"] == 3
        assert summary["plan_runs"] == 1
        assert summary["batches"] == 1
        assert summary["rejected"] == 0
        assert summary["artifact_cache"]["entries"] == 1
        assert summary["plan_cache"]["misses"] == 1
