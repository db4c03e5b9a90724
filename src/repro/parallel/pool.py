"""Worker processes for whole queries: one one-worker executor per rank.

Each rank of a :class:`WorkerPool` is its own ``ProcessPoolExecutor``, so
a lone query always runs on rank 0 (one shared executor would alternate
lone queries over its workers and grow each to the largest query).  A
job's exception comes back as its own type, noted with the rank; a dead
worker raises :class:`~repro.errors.ProtocolError` and closes the pool.
"""

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, NoReturn

from repro.context import _CURRENT
from repro.errors import ProtocolError, annotate_error
from repro.obs.tracer import get_tracer

_IN_WORKER = False


def _start_worker() -> None:
    """Mark a worker; its jobs start from the default run context."""
    global _IN_WORKER
    _IN_WORKER = True
    _CURRENT.context = None


def _refuse_nesting() -> None:
    """A worker builds no pool (a plan asking for ``backend="process"``)."""
    if _IN_WORKER:
        raise ProtocolError("nested worker pools are not supported")


class WorkerPool:
    """``num_workers`` persistent worker processes, one per rank."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ProtocolError(f"a pool needs a rank, got {num_workers}")
        _refuse_nesting()
        self.num_workers = num_workers
        self.closed = False
        start = multiprocessing.get_context("fork" if hasattr(os, "fork") else "spawn")
        self._executors = [
            ProcessPoolExecutor(1, mp_context=start, initializer=_start_worker)
            for _ in range(num_workers)
        ]
        # start every worker now; rank r forks beside the executor threads
        # of ranks < r, but its worker takes none of their locks
        self.pids = [w.submit(os.getpid).result() for w in self._executors]

    def map(self, fn: Callable, items: Iterable) -> list:
        """``[fn(item) for item in items]``, item ``i`` on rank ``i % n``;
        the first failure in item order is raised."""
        if self.closed:
            raise ProtocolError("worker pool is closed")
        jobs = [(i % self.num_workers, item) for i, item in enumerate(items)]
        futures = [(rank, self._submit(rank, fn, item)) for rank, item in jobs]
        return [self._result(rank, future) for rank, future in futures]

    def _submit(self, rank: int, fn: Callable, item) -> Future:
        try:
            return self._executors[rank].submit(fn, item)
        except BrokenProcessPool as error:
            self._lost(rank, error)
        except RuntimeError as error:  # shut down meanwhile by another thread
            raise ProtocolError("worker pool is closed") from error

    def _result(self, rank: int, future: Future):
        try:
            return future.result()
        except BrokenProcessPool as error:
            self._lost(rank, error)
        except Exception as error:
            annotate_error(error, f"raised in worker rank {rank}")
            raise

    def _lost(self, rank: int, error: BrokenProcessPool) -> NoReturn:
        """Close the pool; name the rank and the caller's open spans."""
        self.shutdown(wait=False)
        reason = f"lost worker rank {rank}"
        path = get_tracer().current_path()
        if path:
            reason += f" [active spans: {' > '.join(path)}]"
        raise ProtocolError(reason) from error

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers once their queued jobs are done."""
        self.closed = True
        for executor in self._executors:
            executor.shutdown(wait=wait)


_SHARED_POOLS: dict[int, WorkerPool] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def get_pool(num_workers: int) -> WorkerPool:
    """The shared pool of ``num_workers`` ranks, rebuilt once closed."""
    # before the lock: workers are forked while it is held, and keep it so
    _refuse_nesting()
    # atomic: callers may share pools from their own threads, and a
    # lost race would orphan a pool
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(num_workers)
        if pool is None or pool.closed:
            pool = _SHARED_POOLS[num_workers] = WorkerPool(num_workers)
        return pool


def shutdown_pools() -> None:
    """Shut down every shared pool."""
    with _SHARED_POOLS_LOCK:
        for pool in _SHARED_POOLS.values():
            pool.shutdown()
        _SHARED_POOLS.clear()


atexit.register(shutdown_pools)
