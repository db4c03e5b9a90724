"""Tests for the unified engine: run(), run_many(), report round-trips."""

import json
from dataclasses import replace

import pytest

import repro
from repro.analysis.suites import (
    GRAPH_SUITE_TASKS,
    TUPLE_SUITE_TASKS,
    placement_policies,
    standard_topologies,
)
from repro import registry
from repro.engine import RunPlan, run, run_many, run_with_result
from repro.errors import AnalysisError, ProtocolError
from repro.obs.metrics import collecting, parse_label_key
from repro.parallel.pool import shutdown_pools
from repro.registry import get_task
from repro.report import RunReport
from repro.topology.builders import star, two_level


def task_distribution(tree, task: str):
    """A small input of the shape ``task`` reads."""
    if task in TUPLE_SUITE_TASKS:
        return repro.random_tuple_distribution(tree, r_size=100, s_size=100, seed=1)
    if task in GRAPH_SUITE_TASKS:
        return repro.random_graph_distribution(tree, num_edges=100, seed=1)
    return repro.random_distribution(tree, r_size=100, s_size=100, seed=1)


@pytest.fixture
def instance():
    tree = two_level([2, 3], uplink_bandwidth=0.5)
    dist = repro.random_distribution(tree, r_size=100, s_size=100, seed=1)
    return tree, dist


class TestRun:
    def test_default_protocol_is_topology_aware(self, instance):
        tree, dist = instance
        report = run("set-intersection", tree, dist)
        assert report.task == "set-intersection"
        assert report.protocol == "tree-intersect"
        assert report.lower_bound > 0

    def test_task_alias(self, instance):
        tree, dist = instance
        report = run("intersection", tree, dist)
        assert report.task == "set-intersection"

    @pytest.mark.parametrize(
        "task, protocol",
        [
            (task, protocol)
            for task in repro.tasks()
            for protocol in sorted(repro.protocols_for(task))
        ],
    )
    def test_every_registered_protocol_runs_and_verifies(
        self, instance, task, protocol
    ):
        tree, _ = instance
        if repro.get_protocol(task, protocol).topology == "star":
            tree = star(4)
            dist = repro.random_distribution(tree, r_size=50, s_size=50, seed=2)
        else:
            dist = task_distribution(tree, task)
        report = run(task, tree, dist, protocol=protocol, seed=0)
        assert report.task == task
        assert report.cost >= 0

    @pytest.mark.parametrize("task", repro.tasks())
    def test_root_span_and_run_series_labels(self, instance, task):
        """The root span and the engine's metric series carry the task,
        protocol, topology and placement, and no execution label."""
        tree, _ = instance
        dist = task_distribution(tree, task)
        protocol = get_task(task).default_protocol
        with repro.tracing() as tracer, collecting() as registry:
            report = run(task, tree, dist, placement="zipf")
        (root,) = [e for e in tracer.events if e.depth == 0]
        assert root.attrs == {
            "category": "engine",
            "task": task,
            "protocol": protocol,
            "topology": tree.name,
            "placement": "zipf",
            "cost": report.cost,
            "rounds": report.rounds,
            "wall_time_s": report.wall_time_s,
        }
        snapshot = registry.snapshot()
        runs = snapshot["counters"]["repro_runs_total"]
        assert {"task": task, "protocol": protocol, "status": "ok"} in map(
            parse_label_key, runs
        )
        assert {frozenset(parse_label_key(key)) for key in runs} == {
            frozenset({"task", "protocol", "status"})
        }
        seconds = snapshot["histograms"]["repro_run_seconds"]
        assert {frozenset(parse_label_key(key)) for key in seconds} == {
            frozenset({"task"})
        }

    def test_intersection_report_fields(self, instance):
        tree, dist = instance
        report = run("set-intersection", tree, dist, placement="uniform")
        assert report.task == "set-intersection"
        assert report.rounds == 1
        assert report.lower_bound > 0
        assert report.placement == "uniform"

    def test_cartesian_report(self, instance):
        tree, dist = instance
        report = run("cartesian-product", tree, dist)
        assert report.task == "cartesian-product"
        assert report.cost >= report.lower_bound > 0

    def test_sorting_report(self, instance):
        tree, dist = instance
        report = run("sorting", tree, dist)
        assert report.task == "sorting"
        assert report.rounds <= 4

    def test_verification_can_be_disabled(self, instance):
        tree, dist = instance
        report = run("set-intersection", tree, dist, verify=False)
        assert report.cost >= 0

    def test_seed_routed_only_to_seeded_protocols(self, instance):
        tree, dist = instance
        # classic-hypercube declares accepts_seed=False; a bogus seed must
        # not reach it (passing one directly would raise TypeError).
        report = run(
            "cartesian-product", tree, dist, protocol="classic-hypercube", seed=99
        )
        assert report.cost >= 0
        # seeded protocols actually consume the seed: different seeds may
        # move cost, same seed must reproduce it exactly.
        first = run("set-intersection", tree, dist, protocol="tree", seed=3)
        second = run("set-intersection", tree, dist, protocol="tree", seed=3)
        assert first.cost == second.cost

    def test_extra_opts_forwarded(self, instance):
        tree, dist = instance
        # The ablation hook: one block disables partitioning.
        report = run(
            "set-intersection",
            tree,
            dist,
            protocol="tree",
            blocks=[frozenset(tree.compute_nodes)],
        )
        assert report.cost >= 0

    def test_wall_time_covers_verify_and_bound(self):
        """``wall_time_s`` is what the caller waited for: the clock stops
        after the bound, not after the protocol."""
        tree = two_level([4, 4, 4, 4])
        dist = repro.random_distribution(tree, r_size=4000, s_size=4000, seed=2)
        with repro.tracing() as tracer:
            report = run("set-intersection", tree, dist)
        spans = {event.name.split()[0]: event for event in tracer.events}
        root, bound = spans["engine.run"], spans["engine.bound"]
        assert spans["engine.verify"].end <= bound.start
        # the two clocks are read microseconds apart; verify + bound on
        # this instance take far longer than that
        assert bound.end - root.start - 1e-4 <= report.wall_time_s <= root.duration

    def test_unknown_task_rejected(self, instance):
        tree, dist = instance
        with pytest.raises(AnalysisError, match="unknown task"):
            run("matrix-multiply", tree, dist)

    def test_unknown_protocol_rejected(self, instance):
        tree, dist = instance
        with pytest.raises(AnalysisError, match="unknown protocol"):
            run("sorting", tree, dist, protocol="bogus")

    @pytest.mark.parametrize("task", repro.tasks())
    def test_unknown_protocol_error_names_the_registered_choices(
        self, instance, task
    ):
        tree, dist = instance
        with pytest.raises(AnalysisError) as excinfo:
            run(task, tree, dist, protocol="bogus")
        assert f"for task {task!r}" in str(excinfo.value)
        assert f"choose from {sorted(repro.protocols_for(task))}" in str(
            excinfo.value
        )

    @pytest.mark.parametrize(
        "task, protocol",
        [
            ("set-intersection", "gather"),
            ("sorting", "gather"),
            ("cartesian-product", "gather"),
            ("triangle-count", "tree"),
        ],
    )
    def test_unrun_protocols_are_not_registered(self, instance, task, protocol):
        """Protocols that no benchmark, example or command ran are gone;
        asking for one is the ordinary unknown-protocol error."""
        tree, dist = instance
        assert protocol not in repro.protocols_for(task)
        with pytest.raises(AnalysisError, match=f"unknown protocol '{protocol}'"):
            run(task, tree, dist, protocol=protocol)

    def test_query_tasks_run_and_verify(self):
        tree = two_level([2, 2], uplink_bandwidth=1.0)
        nodes = tree.left_to_right_compute_order()
        keys = list(range(1, 9))
        dist = repro.Distribution(
            {
                node: {
                    "R": repro.encode_tuples(
                        keys[i::len(nodes)], [0] * len(keys[i::len(nodes)])
                    ),
                    "S": repro.encode_tuples(
                        keys[i::len(nodes)], [1] * len(keys[i::len(nodes)])
                    ),
                }
                for i, node in enumerate(nodes)
            }
        )
        join = run("equijoin", tree, dist, seed=1)
        assert join.task == "equijoin"
        assert join.lower_bound > 0
        agg = run("groupby-aggregate", tree, dist, seed=1)
        assert agg.task == "groupby-aggregate"
        assert agg.lower_bound == 0.0

    @pytest.mark.parametrize("stray", ["w2", "nope"])
    @pytest.mark.parametrize("task", repro.tasks())
    def test_output_off_the_compute_nodes_is_rejected(
        self, monkeypatch, task, stray
    ):
        """Only compute nodes hold data (Section 2): one node's output
        moved to a router or to a name outside the tree fails the run,
        whatever the task's own verifier checks."""
        tree = two_level([4, 4])
        dist = task_distribution(tree, task)
        spec = repro.get_protocol(task, get_task(task).default_protocol)

        def moved(*args, **kwargs):
            result = spec.func(*args, **kwargs)
            outputs = dict(result.outputs)
            outputs[stray] = outputs.pop(next(iter(outputs)))
            return replace(result, outputs=outputs)

        monkeypatch.setitem(
            registry._PROTOCOL_SPECS,
            (spec.task, spec.name),
            replace(spec, func=moved),
        )
        with pytest.raises(
            ProtocolError, match=f"at {stray!r}, which is not a compute node"
        ):
            run_with_result(task, tree, dist)


class TestRunMany:
    @pytest.fixture(autouse=True, scope="class")
    def _shared_pools(self):
        yield
        shutdown_pools()

    def test_reports_in_plan_order(self, instance):
        tree, dist = instance
        star_tree = star(4)
        star_dist = repro.random_distribution(
            star_tree, r_size=50, s_size=50, seed=2
        )
        plans = [
            RunPlan("sorting", tree, dist, placement="a"),
            RunPlan("set-intersection", tree, dist, placement="b"),
            RunPlan(
                "cartesian-product",
                star_tree,
                star_dist,
                protocol="whc",
                placement="c",
            ),
            RunPlan("set-intersection", tree, dist, placement="d"),
        ]
        reports = run_many(plans, workers=2)
        assert [r.placement for r in reports] == ["a", "b", "c", "d"]
        assert [r.task for r in reports] == [p.task for p in plans]

    def test_parallel_matches_sequential(self, instance):
        tree, dist = instance
        plans = [
            RunPlan("set-intersection", tree, dist, seed=s) for s in range(4)
        ]
        parallel = run_many(plans, workers=2)
        sequential = run_many(plans)
        assert [r.cost for r in parallel] == [r.cost for r in sequential]

    def test_dict_plans_accepted(self, instance):
        tree, dist = instance
        reports = run_many(
            [{"task": "sorting", "tree": tree, "distribution": dist}]
        )
        assert reports[0].task == "sorting"

    def test_empty_plan_list(self):
        assert run_many([]) == []

    def test_worker_error_propagates(self, instance):
        tree, dist = instance
        plans = [
            RunPlan("set-intersection", tree, dist),
            RunPlan("set-intersection", tree, dist, protocol="bogus"),
        ]
        with pytest.raises(AnalysisError, match="unknown protocol"):
            run_many(plans, workers=2)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_failure_annotated_with_plan_index_and_task(
        self, instance, workers
    ):
        tree, dist = instance
        plans = [
            RunPlan("set-intersection", tree, dist),
            RunPlan("sorting", tree, dist, protocol="bogus"),
        ]
        with pytest.raises(AnalysisError) as excinfo:
            run_many(plans, workers=workers)
        # the propagated exception pins the failing cell: index 1, task
        # 'sorting' (as a note on 3.11+, folded into args on 3.10)
        notes = "\n".join(getattr(excinfo.value, "__notes__", []))
        rendered = f"{excinfo.value}\n{notes}"
        assert "plan 1" in rendered
        assert "'sorting'" in rendered


class TestSuites:
    def test_standard_topologies_are_symmetric(self):
        for tree in standard_topologies():
            assert tree.is_symmetric

    def test_policies(self):
        assert "uniform" in placement_policies()
        assert "zipf" in placement_policies()


class TestReportSerialization:
    def test_json_round_trip(self, instance):
        tree, dist = instance
        report = run("sorting", tree, dist, placement="zipf")
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = RunReport.from_dict(payload)
        assert rebuilt.task == report.task
        assert rebuilt.protocol == report.protocol
        assert rebuilt.topology == report.topology
        assert rebuilt.placement == "zipf"
        assert rebuilt.input_size == report.input_size
        assert rebuilt.rounds == report.rounds
        assert rebuilt.cost == report.cost
        assert rebuilt.lower_bound == report.lower_bound
        assert rebuilt.ratio == pytest.approx(report.ratio)

    def test_to_dict_is_json_serializable_with_numpy_meta(self, instance):
        tree, dist = instance
        # sorting meta carries numpy arrays (splitters, order) — the
        # export must not choke on them.
        report = run("sorting", tree, dist)
        json.dumps(report.to_dict())

    def test_from_dict_missing_field_rejected(self):
        with pytest.raises(AnalysisError, match="missing field"):
            RunReport.from_dict({"task": "sorting"})
