"""Failure-path tests: a worker that dies.

A worker crash (SIGKILL) surfaces as :class:`ProtocolError` naming the
lost rank and the caller's open spans, and the pool closes itself; a
later ``get_pool`` builds a fresh one.
"""

import os
import signal

import pytest

from repro.data.generators import random_distribution
from repro.engine import RunPlan, run, run_many
from repro.errors import ProtocolError
from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools
from repro.topology.builders import two_level


class KillsItsWorker:
    """A payload whose unpickling SIGKILLs the worker it was sent to:
    the job dies after it left the caller, with no timing involved."""

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def __reduce__(self):
        return os.kill, (self.pid, signal.SIGKILL)


def echo(payload):
    return payload


@pytest.fixture
def instance():
    tree = two_level([3, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
    return tree, random_distribution(tree, r_size=300, s_size=300, seed=1)


class TestPoolFailures:
    def test_killed_worker_names_its_rank_and_closes_the_pool(self):
        pool = WorkerPool(2)
        with pytest.raises(ProtocolError, match=r"^lost worker rank 1$"):
            pool.map(echo, ["fine", KillsItsWorker(pool.pids[1])])
        assert pool.closed

    def test_broken_pool_refuses_jobs(self):
        pool = WorkerPool(1)
        with pytest.raises(ProtocolError, match="lost worker rank 0"):
            pool.map(echo, [KillsItsWorker(pool.pids[0])])
        with pytest.raises(ProtocolError, match="closed"):
            pool.map(echo, [0])

    def test_get_pool_replaces_a_broken_pool(self):
        try:
            broken = get_pool(1)
            with pytest.raises(ProtocolError):
                broken.map(echo, [KillsItsWorker(broken.pids[0])])
            fresh = get_pool(1)
            assert fresh is not broken
            assert fresh.map(echo, [3]) == [3]
        finally:
            shutdown_pools()


class TestProcessBackendFailures:
    def test_worker_killed_mid_query_fails_it_and_the_next_one_runs(
        self, instance
    ):
        tree, dist = instance
        try:
            pool = get_pool(2)
            plans = [
                RunPlan("sorting", tree, dist),
                RunPlan(
                    "sorting", tree, dist,
                    opts={"poison": KillsItsWorker(pool.pids[1])},
                ),
            ]
            with pytest.raises(ProtocolError) as info:
                run_many(plans, workers=2, executor="process")
            assert str(info.value) == (
                "lost worker rank 1 [active spans: pool.scatter]"
            )
            reports = run_many(plans[:1] * 2, workers=2, executor="process")
            assert get_pool(2) is not pool
            assert [r.cost for r in reports] == [run("sorting", tree, dist).cost] * 2
        finally:
            shutdown_pools()

    def test_killed_idle_worker_fails_the_next_query_only(self, instance):
        tree, dist = instance
        try:
            os.kill(get_pool(1).pids[0], signal.SIGKILL)
            with pytest.raises(ProtocolError) as info:
                run("set-intersection", tree, dist, backend="process", num_workers=1)
            assert str(info.value).startswith("lost worker rank 0")
            assert str(info.value).endswith("[active spans: pool.scatter]")
            report = run("sorting", tree, dist, backend="process", num_workers=1)
            assert report.cost == run("sorting", tree, dist).cost
        finally:
            shutdown_pools()
