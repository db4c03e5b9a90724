"""Worker-pool lifecycle and dispatch tests."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.errors import ProtocolError, annotate_error
from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools


def echo(payload):
    return payload


def boom(payload):
    error = ValueError(f"boom on {payload!r}")
    annotate_error(error, "kernel-side note")
    raise error


def boom_if_set(payload):
    return boom(payload) if payload else payload


def pid(_payload) -> int:
    return os.getpid()


def nested(make):
    """Try to build a pool inside a worker; the refusal's message."""
    try:
        get_pool(1) if make == "get_pool" else WorkerPool(1)
    except ProtocolError as error:
        return str(error)
    return None


def _alive(pid: int) -> bool:
    return Path(f"/proc/{pid}").exists()


@pytest.fixture
def pool():
    pool = WorkerPool(2)
    yield pool
    pool.shutdown()


class TestDispatch:
    def test_map_preserves_item_order(self, pool):
        items = list(range(7))
        assert pool.map(echo, items) == items

    def test_map_deals_round_robin(self, pool):
        assert pool.map(pid, [0, 1, 2, 3]) == pool.pids * 2

    def test_one_item_runs_on_rank_zero(self, pool):
        assert pool.map(pid, [0]) == pool.pids[:1]

    def test_map_empty_is_noop(self, pool):
        assert pool.map(echo, []) == []

    def test_pids_are_live_workers(self, pool):
        assert len(set(pool.pids)) == pool.num_workers == 2
        assert os.getpid() not in pool.pids

    def test_job_exception_reraised_with_rank_note(self, pool):
        with pytest.raises(ValueError, match="boom") as info:
            pool.map(boom, ["x", "y"])
        notes = getattr(info.value, "__notes__", ())
        assert any("kernel-side note" in note for note in notes)
        assert any("worker rank 0" in note for note in notes)

    def test_lowest_failing_item_is_raised(self, pool):
        # items 0 and 2 run on rank 0, item 1 on rank 1; all three fail
        with pytest.raises(ValueError, match="boom on 'b'") as info:
            pool.map(boom, ["b", "c", "d"])
        assert any("worker rank 0" in note for note in info.value.__notes__)

    def test_a_failure_on_rank_one_names_rank_one(self, pool):
        with pytest.raises(ValueError, match="boom on 'y'") as info:
            pool.map(boom_if_set, ["", "y"])
        assert any("worker rank 1" in note for note in info.value.__notes__)

    @pytest.mark.parametrize("make", ["get_pool", "WorkerPool"])
    def test_workers_build_no_pools(self, pool, make):
        (message,) = pool.map(nested, [make])
        assert message == "nested worker pools are not supported"

    def test_pool_survives_job_exceptions(self, pool):
        with pytest.raises(ValueError):
            pool.map(boom, ["x", "y"])
        assert not pool.closed
        assert pool.map(echo, [1, 2]) == [1, 2]

    def test_threads_sharing_a_pool_get_their_own_results(self, pool):
        results = {}

        def work(label):
            results[label] = pool.map(echo, [label] * 5)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {i: [i] * 5 for i in range(6)}


class TestLifecycle:
    def test_requires_at_least_one_rank(self):
        with pytest.raises(ProtocolError, match="needs a rank"):
            WorkerPool(0)

    def test_closed_pool_rejects_jobs(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(ProtocolError, match="closed"):
            pool.map(echo, [None])

    def test_get_pool_caches_per_size(self):
        try:
            a = get_pool(2)
            b = get_pool(2)
            c = get_pool(1)
            assert a is b
            assert a is not c
        finally:
            shutdown_pools()

    def test_get_pool_is_thread_safe(self):
        # A lost check-then-create race would orphan a started pool
        # (live workers shutdown_pools never sees); all threads must
        # receive the one cached instance.
        pools = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            pools.append(get_pool(2))

        try:
            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(set(map(id, pools))) == 1
        finally:
            shutdown_pools()

    def test_shutdown_is_idempotent_and_stops_the_workers(self):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()
        assert pool.closed
        assert not any(_alive(pid) for pid in pool.pids)

    def test_shutdown_pools_closes_every_shared_pool(self):
        pools = [get_pool(1), get_pool(2)]
        shutdown_pools()
        assert all(pool.closed for pool in pools)
        assert get_pool(1) is not pools[0]
        shutdown_pools()

    def test_get_pool_replaces_closed_pool(self):
        try:
            a = get_pool(2)
            a.shutdown()
            b = get_pool(2)
            assert b is not a
            assert not b.closed
        finally:
            shutdown_pools()


def test_importing_repro_starts_no_process_machinery():
    """The pool is imported on first use: ``import repro`` loads neither
    it nor :mod:`multiprocessing`."""
    src = Path(repro.__file__).resolve().parents[1]
    probe = (
        "import sys, repro; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process', "
        "'repro.parallel.pool') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
