"""``backend="process"``: one whole query on one pool worker, as a
one-plan ``run_many(workers=n)``.

The report must equal the simulator's.  The caller's trace records one
``barrier`` span for the wait; the query's own spans, metrics and audit
checks stay on the worker, which runs from the default run context.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.suites import GRAPH_SUITE_TASKS, TUPLE_SUITE_TASKS
from repro.data.generators import random_distribution
from repro.engine import RunPlan, run, run_many
from repro.errors import AnalysisError, ProtocolError
from repro.obs.audit import auditing
from repro.obs.metrics import collecting
from repro.obs.tracer import MAIN_TRACK, get_tracer, tracing
from repro.parallel.pool import get_pool, shutdown_pools
from repro.registry import BACKENDS, list_protocols
from repro.session import EngineSession
from repro.topology.builders import fat_tree, star
from tests.strategies import tree_topologies

#: Every registered (task, protocol) pair.
PAIRS = [
    (task, protocol)
    for task in repro.tasks()
    for protocol in sorted(repro.protocols_for(task))
]


@pytest.fixture(autouse=True, scope="module")
def _shared_pools():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def instance():
    tree = fat_tree(2, 2)
    dist = random_distribution(
        tree, r_size=600, s_size=600, policy="proportional", seed=3
    )
    return tree, dist


def _instance(task: str, protocol: str | None = None):
    """A small instance ``protocol`` of ``task`` runs on."""
    if protocol and repro.get_protocol(task, protocol).topology == "star":
        tree = star(4)
        return tree, random_distribution(tree, r_size=60, s_size=60, seed=2)
    tree = fat_tree(2, 2)
    if task in TUPLE_SUITE_TASKS:
        return tree, repro.random_tuple_distribution(
            tree, r_size=200, s_size=200, seed=1
        )
    if task in GRAPH_SUITE_TASKS:
        return tree, repro.random_graph_distribution(tree, num_edges=150, seed=1)
    return tree, random_distribution(tree, r_size=200, s_size=200, seed=1)


def _process(task, tree, dist, **kwargs):
    return run(task, tree, dist, backend="process", num_workers=2, **kwargs)


def _strip(report) -> dict:
    """``report.to_dict()`` without its wall-clock fields, nested
    superstep reports included."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "wall_time_s"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(report.to_dict())


class TestReports:
    @pytest.mark.parametrize("task, protocol", PAIRS)
    def test_every_protocol_reports_as_in_process(self, task, protocol):
        tree, dist = _instance(task, protocol)
        reports = {
            backend: run(
                task, tree, dist, protocol=protocol, seed=1, backend=backend
            )
            for backend in BACKENDS
        }
        assert _strip(reports["process"]) == _strip(reports["sim"])

    def test_wall_time_covers_the_round_trip(self, instance):
        tree, dist = instance
        with tracing() as tracer:
            report = _process("sorting", tree, dist)
        (scatter,) = tracer.events
        assert report.wall_time_s >= scatter.duration

    def test_every_protocol_runs_on_both_backends(self):
        assert all(spec.backends == BACKENDS for spec in list_protocols())

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_pool_size_does_not_change_the_report(self, instance, num_workers):
        tree, dist = instance
        report = run(
            "sorting", tree, dist, backend="process", num_workers=num_workers
        )
        assert _strip(report) == _strip(run("sorting", tree, dist))


class TestArguments:
    def test_unknown_backend_rejected(self, instance):
        tree, dist = instance
        with pytest.raises(AnalysisError, match="unknown backend 'fpga'"):
            run("sorting", tree, dist, backend="fpga")

    @pytest.mark.parametrize("backend", [None, "sim"])
    def test_num_workers_only_with_process(self, instance, backend):
        tree, dist = instance
        with pytest.raises(AnalysisError, match="only applies"):
            run("sorting", tree, dist, backend=backend, num_workers=2)

    @pytest.mark.parametrize("num_workers", [0, -1])
    def test_num_workers_must_be_positive(self, instance, num_workers):
        tree, dist = instance
        # validated by run_many before any pool is built
        with pytest.raises(AnalysisError, match=f"must be >= 1, got {num_workers}"):
            run("sorting", tree, dist, backend="process", num_workers=num_workers)

    def test_worker_errors_come_back_annotated(self, instance):
        tree, dist = instance
        with pytest.raises(AnalysisError, match="unknown protocol") as info:
            _process("sorting", tree, dist, protocol="no-such-protocol")
        assert any("worker rank 0" in n for n in info.value.__notes__)

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_num_workers_picks_the_shared_pool(self, instance, num_workers):
        tree, dist = instance
        with tracing() as tracer:
            report = run(
                "sorting", tree, dist, backend="process", num_workers=num_workers
            )
        (scatter,) = tracer.events
        assert scatter.attrs["workers"] == num_workers
        assert get_pool(num_workers).num_workers == num_workers
        assert report.rounds > 0

    def test_workers_host_no_nested_pools(self, instance):
        tree, dist = instance
        plans = [
            RunPlan("sorting", tree, dist, opts={"backend": "process"})
        ] * 2
        with pytest.raises(ProtocolError, match="nested worker pools"):
            run_many(plans, workers=2)


class TestRunMany:
    @pytest.fixture
    def plans(self, instance):
        tree, dist = instance
        return [RunPlan("sorting", tree, dist, seed=seed) for seed in range(3)]

    @pytest.mark.parametrize("task", repro.tasks())
    def test_pool_matches_in_caller(self, task):
        tree, dist = _instance(task)
        plans = [RunPlan(task, tree, dist, seed=seed) for seed in range(3)]
        in_caller = run_many(plans)
        pooled = run_many(plans, workers=2)
        assert [_strip(r) for r in pooled] == [_strip(r) for r in in_caller]

    @pytest.mark.parametrize("workers, count", [(1, 3), (2, 1)])
    def test_one_worker_or_one_plan_still_goes_to_the_pool(
        self, plans, workers, count
    ):
        # no sequential shortcut: the plans' spans stay on the worker
        with tracing() as tracer:
            reports = run_many(plans[:count], workers=workers)
        assert [e.name for e in tracer.events] == ["pool.scatter"]
        assert [_strip(r) for r in reports] == [
            _strip(r) for r in run_many(plans[:count])
        ]

    def test_process_backend_defaults_to_two_workers(self, plans):
        plan = plans[0]
        with tracing() as tracer:
            report = run(
                plan.task, plan.tree, plan.distribution, backend="process"
            )
        (scatter,) = tracer.events
        assert scatter.name == "pool.scatter"
        assert scatter.attrs["workers"] == 2
        assert _strip(report) == _strip(plan.execute())

    @pytest.mark.parametrize("count", [1, 3])
    def test_in_caller_batch_runs_here(self, plans, count):
        # no pool: every plan's spans land in this trace
        with tracing() as tracer:
            run_many(plans[:count])
        names = [e.name for e in tracer.events]
        assert "pool.scatter" not in names
        assert names.count("engine.run sorting") == count

    def test_process_executor_annotates_failing_plan(self, plans):
        plans[1].protocol = "no-such-protocol"
        with pytest.raises(AnalysisError, match="unknown protocol") as info:
            run_many(plans, workers=2)
        notes = " ".join(getattr(info.value, "__notes__", ()))
        assert "plan 1" in notes
        assert "worker rank" in notes

    def test_process_executor_waits_in_one_barrier_span(self, plans):
        with tracing() as tracer:
            run_many(plans, workers=2)
        (scatter,) = tracer.events
        assert scatter.name == "pool.scatter"
        assert scatter.attrs == {"category": "barrier", "workers": 2}

    def test_process_backend_plans_in_caller(self, plans):
        baseline = run_many(plans)
        for plan in plans:
            plan.opts = {"backend": "process", "num_workers": 2}
        with tracing() as tracer:
            reports = run_many(plans)
        assert [_strip(r) for r in reports] == [_strip(r) for r in baseline]
        assert [e.name for e in tracer.events] == ["pool.scatter"] * 3


class TestSession:
    @pytest.mark.parametrize("task", repro.tasks())
    def test_session_run_on_a_worker(self, task):
        tree, dist = _instance(task)
        with EngineSession(tree) as session:
            report = session.run(
                task, dist, seed=1, backend="process", num_workers=2
            )
            assert session.summary()["runs"] == 1
        assert _strip(report) == _strip(run(task, tree, dist, seed=1))


class TestObservability:
    @pytest.mark.parametrize("task", repro.tasks())
    def test_the_caller_traces_only_the_wait(self, task):
        tree, dist = _instance(task)
        with tracing() as tracer:
            with tracer.span("caller"):
                report = _process(task, tree, dist, seed=1)
        caller, scatter = sorted(tracer.events, key=lambda e: e.depth)
        assert (caller.name, scatter.name) == ("caller", "pool.scatter")
        assert {e.track for e in tracer.events} == {MAIN_TRACK}
        assert scatter.depth == 1
        assert scatter.attrs == {"category": "barrier", "workers": 2}
        assert report.wall_time_s >= scatter.duration

    def test_untraced_run_records_nothing(self, instance):
        tree, dist = instance
        _process("sorting", tree, dist)
        assert get_tracer().events == ()

    @pytest.mark.parametrize("task", repro.tasks())
    def test_metrics_and_audit_stay_on_the_worker(self, task):
        tree, dist = _instance(task)
        observed = {}
        for backend in BACKENDS:
            with collecting() as registry, auditing(strict=True) as auditor:
                run(task, tree, dist, seed=1, backend=backend)
            observed[backend] = (
                registry.snapshot()["counters"],
                auditor.rounds_checked,
            )
        assert observed["process"] == ({}, 0)
        counters, rounds_checked = observed["sim"]
        assert counters["repro_runs_total"]
        assert rounds_checked > 0


class TestProperty:
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    @given(
        tree=tree_topologies(min_nodes=3, max_nodes=9),
        seed=st.integers(0, 2**16),
        task=st.sampled_from(["set-intersection", "sorting", "equijoin"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_process_run_equals_in_process_run(self, num_workers, tree, seed, task):
        make = (
            repro.random_tuple_distribution
            if task in TUPLE_SUITE_TASKS
            else random_distribution
        )
        dist = make(tree, r_size=80, s_size=80, policy="zipf", seed=seed)
        sim = run(task, tree, dist, seed=seed)
        proc = run(
            task, tree, dist, seed=seed, backend="process", num_workers=num_workers
        )
        assert _strip(proc) == _strip(sim)
