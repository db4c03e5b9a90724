"""A run's expected answer and bound, computed on the engine's side
thread while its protocol runs, give what the caller computes after it.

``engine.AHEAD_MIN_ELEMENTS`` decides the path by input size; these
tests patch it (and the usable-CPU count, so a one-CPU host takes the
side path too) to run one small instance both ways.
"""

import importlib.util
import os
import signal
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import engine, registry
from repro.analysis.suites import GRAPH_SUITE_TASKS, TUPLE_SUITE_TASKS
from repro.engine import run_with_result
from repro.errors import AnalysisError, ProtocolError
from repro.obs.metrics import collecting
from repro.obs.tracer import MAIN_TRACK, tracing
from repro.plan.logical import chain_query
from repro.plan.relation import chain_catalog
from repro.registry import get_task
from repro.topology.builders import two_level

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tree():
    return two_level([3, 4, 2], uplink_bandwidth=[1, 2, 4])


@pytest.fixture
def side(monkeypatch):
    """Switch to the side path (``True``) or the caller's (``False``)."""

    def switch(on: bool) -> None:
        monkeypatch.setattr(engine, "AHEAD_MIN_ELEMENTS", 1 if on else 1 << 62)
        monkeypatch.setattr(engine, "_USABLE_CPUS", 2)

    return switch


def instance(tree, task: str):
    if task == "cartesian-product":  # Theorem 5 takes |R| == |S|
        return repro.random_distribution(
            tree, r_size=400, s_size=400, policy="zipf", seed=3
        )
    if task in GRAPH_SUITE_TASKS:
        return repro.random_graph_distribution(tree, num_edges=300, seed=3)
    if task in TUPLE_SUITE_TASKS:
        return repro.random_tuple_distribution(
            tree, r_size=300, s_size=500, policy="zipf", seed=3
        )
    return repro.random_distribution(
        tree, r_size=300, s_size=500, policy="zipf", seed=3
    )


def ahead_events(tracer) -> list:
    return [e for e in tracer.events if e.attrs.get("category") == "ahead"]


def both_paths(side, call) -> tuple:
    """``call()`` on the caller's path, then on the side path; the second
    must have run its job on the side thread."""
    side(False)
    with tracing() as tracer:
        inline = call()
    assert not ahead_events(tracer)
    side(True)
    with tracing() as tracer:
        ahead = call()
    assert ahead_events(tracer)
    return inline, ahead


def without_wall(value):
    """A report's payload without the wall times at any depth (the graph
    reports nest their superstep reports)."""
    if hasattr(value, "to_dict"):
        value = value.to_dict()
    if isinstance(value, dict):
        return {k: without_wall(v) for k, v in value.items() if "wall" not in k}
    if isinstance(value, (list, tuple)):
        return [without_wall(v) for v in value]
    return value


@pytest.mark.parametrize("task", repro.tasks())
def test_the_side_path_reports_what_the_caller_computes(side, tree, task):
    dist = instance(tree, task)
    inline, ahead = both_paths(side, lambda: repro.run(task, tree, dist, seed=2))
    assert without_wall(ahead) == without_wall(inline)


def _digest_tool():
    spec = importlib.util.spec_from_file_location(
        "parity_digest", ROOT / "tools" / "parity_digest.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("task", ["set-intersection", "equijoin"])
def test_each_corruption_fails_alike_on_both_paths(monkeypatch, side, tree, task):
    """The parity digest's corruptions of an answer, returned by the
    protocol itself: the run raises the same message either way."""
    dist = instance(tree, task)
    spec = repro.get_protocol(task, get_task(task).default_protocol)
    _, result = run_with_result(task, tree, dist)
    corruptions = list(_digest_tool()._corruptions(tree, task, dist, result.outputs))
    assert len(corruptions) > 1
    for name, outputs in corruptions:
        monkeypatch.setitem(
            registry._PROTOCOL_SPECS,
            (spec.task, spec.name),
            replace(spec, func=lambda *a, _o=outputs, **k: replace(result, outputs=_o)),
        )
        messages = []
        for on in (False, True):
            side(on)
            try:
                run_with_result(task, tree, dist)
                messages.append("ok")
            except ProtocolError as error:
                messages.append(str(error))
        assert messages[0] == messages[1], name
        assert (messages[0] == "ok") == (name in ("answer", "at two nodes")), name


def _slow_expect(monkeypatch, task: str) -> threading.Event:
    """Make ``task``'s expected answer slow; the event is set once it
    has been computed."""
    spec = get_task(task)
    done = threading.Event()

    def slow(*args, **kwargs):
        threading.Event().wait(0.05)
        expected = spec.expect(*args, **kwargs)
        done.set()
        return expected

    monkeypatch.setitem(registry._TASK_SPECS, spec.name, replace(spec, expect=slow))
    return done


def test_a_raising_protocol_raises_its_own_error_after_the_job(
    monkeypatch, side, tree
):
    dist = instance(tree, "sorting")
    spec = repro.get_protocol("sorting", "wts")

    def broken(*args, **kwargs):
        raise ProtocolError("boom")

    monkeypatch.setitem(
        registry._PROTOCOL_SPECS, (spec.task, spec.name), replace(spec, func=broken)
    )
    done = _slow_expect(monkeypatch, "sorting")
    side(True)
    with pytest.raises(ProtocolError, match="^boom$"):
        run_with_result("sorting", tree, dist)
    assert done.is_set()


def test_a_wrong_output_node_raises_after_the_job(monkeypatch, side, tree):
    dist = instance(tree, "set-intersection")
    spec = repro.get_protocol("set-intersection", "tree")

    def moved(*args, **kwargs):
        result = spec.func(*args, **kwargs)
        return replace(result, outputs={"nope": np.arange(3)})

    monkeypatch.setitem(
        registry._PROTOCOL_SPECS, (spec.task, spec.name), replace(spec, func=moved)
    )
    done = _slow_expect(monkeypatch, "set-intersection")
    side(True)
    with pytest.raises(ProtocolError, match="which is not a compute node"):
        run_with_result("set-intersection", tree, dist)
    assert done.is_set()


def test_an_input_the_task_refuses_fails_the_verify_span_on_both_paths(side, tree):
    """A graph with a duplicated edge: triangle counting's expected
    answer refuses it, in ``engine.verify`` either way."""
    edges = repro.random_graph_distribution(tree, num_edges=300, seed=3)
    node = tree.compute_nodes[0]
    packed = edges.relation("E")
    doubled = repro.Distribution.from_columns(
        (node,),
        {"E": (np.concatenate([packed, packed[:1]]), np.array([0, len(packed) + 1]))},
    )
    for on in (False, True):
        side(on)
        with tracing() as tracer, pytest.raises(ProtocolError, match="simple graph"):
            run_with_result("triangle-count", tree, doubled)
        failed = [e.name for e in tracer.events if "error" in e.attrs]
        assert "engine.verify" in failed and "engine.bound" not in failed


def test_a_raising_bound_fails_the_bound_span_on_both_paths(monkeypatch, side, tree):
    spec = get_task("sorting")

    def refused(*args, **kwargs):
        raise AnalysisError("no bound here")

    monkeypatch.setitem(
        registry._TASK_SPECS, spec.name, replace(spec, lower_bound=refused)
    )
    dist = instance(tree, "sorting")
    for on in (False, True):
        side(on)
        with tracing() as tracer, pytest.raises(AnalysisError, match="no bound here"):
            run_with_result("sorting", tree, dist)
        failed = [e.name for e in tracer.events if "error" in e.attrs]
        assert "engine.bound" in failed and "engine.verify" not in failed


def test_a_plan_join_with_its_own_payload_width_verifies(side, tree):
    """Plan stages join on packed columns whose payload width is the
    stage's, not the default 20 bits: the expected pair count must read
    the width the protocol ran with."""
    catalog = chain_catalog(tree, num_relations=3, rows=300, key_space=64, seed=1)
    inline, ahead = both_paths(
        side, lambda: repro.run_plan(chain_query(3), tree, catalog, seed=1)
    )
    assert [stage.cost for stage in ahead.stages] == [
        stage.cost for stage in inline.stages
    ]
    assert ahead.output_rows == inline.output_rows


def test_a_traced_large_run_records_one_ahead_span_off_the_main_track(
    monkeypatch,
):
    monkeypatch.setattr(engine, "_USABLE_CPUS", 2)
    tree = two_level([8] * 4, leaf_bandwidth=2, uplink_bandwidth=[1, 2, 4, 8])
    dist = repro.random_distribution(
        tree, r_size=engine.AHEAD_MIN_ELEMENTS, s_size=0, seed=1
    )
    with tracing() as tracer, collecting() as registry_:
        report = repro.run("sorting", tree, dist)
    (ahead,) = ahead_events(tracer)
    assert ahead.name == "engine.ahead sorting"
    assert ahead.track != MAIN_TRACK
    assert ahead.attrs["task"] == "sorting"
    tracks = {e.name: e.track for e in tracer.events}
    assert tracks["engine.verify"] == tracks["engine.bound"] == MAIN_TRACK
    # the job ran inside the run it belongs to
    (root,) = [e for e in tracer.events if e.name == "engine.run sorting"]
    assert root.start <= ahead.start and ahead.end <= root.end
    snapshot = registry_.snapshot()
    assert snapshot["counters"]["repro_verify_total"] == {
        "outcome=pass|task=sorting": 1
    }
    (seconds,) = snapshot["histograms"]["repro_ahead_seconds"].values()
    assert seconds["count"] == 1
    assert seconds["sum"] == pytest.approx(ahead.attrs["wall_time_s"])
    assert report.cost >= 0


def test_caller_threads_share_one_side_thread(monkeypatch, side, tree):
    """More caller threads than cores, each running large runs at once
    under a short switch interval: every report equals its sequential
    twin, and the process holds one side executor."""
    side(True)
    monkeypatch.setattr(engine, "_side", None)
    tasks = ["sorting", "set-intersection", "equijoin", "groupby-aggregate"] * 2
    inputs = [instance(tree, task) for task in tasks]
    expected = [
        without_wall(repro.run(task, tree, dist, seed=1))
        for task, dist in zip(tasks, inputs)
    ]
    executor = engine._side
    reports = [None] * len(tasks)

    def caller(i: int) -> None:
        for _ in range(3):
            reports[i] = without_wall(repro.run(tasks[i], tree, inputs[i], seed=1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=caller, args=(i,)) for i in range(len(tasks))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == expected
    assert engine._side is executor is not None


def test_a_small_input_takes_the_callers_path(tree):
    dist = instance(tree, "sorting")
    assert dist.total() < engine.AHEAD_MIN_ELEMENTS
    with tracing() as tracer:
        repro.run("sorting", tree, dist)
    assert not ahead_events(tracer)


FORKED = textwrap.dedent(
    """
    import repro
    from repro import engine
    from repro.engine import RunPlan, run_many
    from repro.parallel.pool import shutdown_pools

    engine._USABLE_CPUS = 2  # the side path, on any host
    tree = repro.two_level([4] * 4)
    dist = repro.random_distribution(tree, r_size=20_000, s_size=0, seed=1)
    here = repro.run("sorting", tree, dist)
    assert engine._side is not None  # the side thread runs in this process
    (there,) = run_many([RunPlan("sorting", tree, dist)], workers=1)
    shutdown_pools()
    print(here.cost, there.cost, here.lower_bound, there.lower_bound)
    """
)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_worker_builds_its_own_side_thread():
    """A pool worker forked after a large in-process run inherits an
    executor whose thread does not exist in it; the engine drops it at
    the fork, so the worker's own large run does not wait forever."""
    child = subprocess.Popen(
        [sys.executable, "-c", FORKED],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # a hung worker goes down with its parent
    )
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the forked worker's run never finished")
    assert child.returncode == 0, err
    here_cost, there_cost, here_bound, there_bound = out.split()
    assert here_cost == there_cost and here_bound == there_bound


AT_EXIT = textwrap.dedent(
    """
    import atexit
    import repro
    from repro import engine

    engine._USABLE_CPUS = 2
    tree = repro.two_level([4] * 4)
    dist = repro.random_distribution(tree, r_size=20_000, s_size=0, seed=1)
    print(repro.run("sorting", tree, dist).cost)

    @atexit.register
    def late():
        print(repro.run("sorting", tree, dist).cost)
    """
)


def test_a_run_at_interpreter_exit_computes_in_the_caller():
    """An exit hook runs after the executors stopped taking jobs: the
    run computes its expected answer and bound itself."""
    done = subprocess.run(
        [sys.executable, "-c", AT_EXIT],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    first, late = done.stdout.split()
    assert first == late
