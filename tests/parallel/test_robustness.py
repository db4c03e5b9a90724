"""Failure-path tests: a dead worker or a deadline overrun.

A worker crash (SIGKILL) or a job that overruns its deadline surfaces as
:class:`ProtocolError` naming the guilty rank and the job's label, and
the pool closes itself; a later ``get_pool`` builds a fresh one.
"""

import os
import signal
import threading
import time

import pytest

from repro.data.generators import random_distribution
from repro.engine import run
from repro.errors import ProtocolError
from repro.obs.tracer import get_tracer
from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools
from repro.topology.builders import two_level

SLEEP = "tests.parallel.test_robustness:sleep"


def sleep(seconds) -> str:
    time.sleep(float(seconds))
    return "slept"


class TestPoolFailures:
    def test_timeout_names_ranks_and_closes_pool(self):
        pool = WorkerPool(2)
        with pytest.raises(ProtocolError, match=r"timed out.*rank"):
            pool.scatter(SLEEP, [30.0, 30.0], timeout=0.3, label="job 7")
        assert pool.closed

    def test_timeout_error_names_the_job(self):
        pool = WorkerPool(1)
        with pytest.raises(ProtocolError, match="job 7"):
            pool.scatter(SLEEP, [30.0], timeout=0.3, label="job 7")

    def test_timeout_error_carries_active_span_stack(self):
        tracer = get_tracer()  # the default no-op tracer suffices
        pool = WorkerPool(1)
        with tracer.span("run_many"):
            with tracer.span("pool.scatter"):
                with pytest.raises(
                    ProtocolError, match=r"active spans: run_many > pool.scatter"
                ):
                    pool.scatter(SLEEP, [30.0], timeout=0.3)
        assert pool.closed

    def test_sigkill_names_rank_and_exit_code(self):
        pool = WorkerPool(2)
        victim = pool.pids[1]
        threading.Timer(0.2, os.kill, args=(victim, signal.SIGKILL)).start()
        with pytest.raises(ProtocolError, match=r"lost worker rank 1.*-9"):
            pool.scatter(SLEEP, [30.0, 30.0], timeout=30, label="job 3")
        assert pool.closed

    def test_broken_pool_reports_reason(self):
        pool = WorkerPool(1)
        with pytest.raises(ProtocolError):
            pool.scatter(SLEEP, [30.0], timeout=0.3, label="job 2")
        with pytest.raises(ProtocolError, match="job 2"):
            pool.scatter(SLEEP, [0.0])


class TestProcessBackendFailures:
    def test_killed_worker_fails_the_query_and_the_next_one_runs(self):
        tree = two_level([3, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)
        dist = random_distribution(tree, r_size=300, s_size=300, seed=1)
        try:
            pool = get_pool(1)
            pool.scatter(SLEEP, [0.0])  # the rank is up
            os.kill(pool.pids[0], signal.SIGKILL)
            with pytest.raises(ProtocolError, match="lost worker rank 0"):
                run("sorting", tree, dist, backend="process", num_workers=1)
            report = run("sorting", tree, dist, backend="process", num_workers=1)
            assert report.cost == run("sorting", tree, dist).cost
        finally:
            shutdown_pools()

    def test_lost_worker_error_names_the_scatter_span(self):
        tree = two_level([2, 2])
        dist = random_distribution(tree, r_size=100, s_size=100, seed=1)
        try:
            pool = get_pool(1)
            pool.scatter(SLEEP, [0.0])
            os.kill(pool.pids[0], signal.SIGKILL)
            with pytest.raises(ProtocolError) as info:
                run("set-intersection", tree, dist, backend="process", num_workers=1)
        finally:
            shutdown_pools()
        message = str(info.value)
        assert "lost worker rank 0" in message
        assert message.endswith("[active spans: pool.scatter]")
