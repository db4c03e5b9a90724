"""Persistent worker-process pool with a barrier-synchronized job API.

A :class:`WorkerPool` owns ``num_workers`` long-lived OS processes
("ranks"), one task queue per rank plus one shared result queue, and a
:class:`~repro.parallel.shmem.SharedArrayPool` for the segments jobs
reference.  Two entry points cover the substrate's needs:

* :meth:`WorkerPool.broadcast` — one job per rank, wait for *all*
  replies.  This is the round barrier: a superstep's communication
  kernels run on every rank and the master proceeds only when the whole
  round has been delivered.
* :meth:`WorkerPool.scatter` — a work list dealt round-robin across
  ranks (``engine.run_many``'s process executor).

Jobs name their function as ``"module:callable"`` and carry one
picklable payload; heavy data travels through shared memory, not the
queues.  Workers import the target lazily and cache it, so the pool is
generic — round kernels, plan execution, and test helpers all dispatch
through the same loop.

Failure handling is explicit because the callers are protocols with a
correctness contract: a worker that dies (e.g. SIGKILL) or a round that
exceeds its deadline raises :class:`~repro.errors.ProtocolError` naming
the guilty rank(s), and the pool terminates itself — killing the
remaining workers and unlinking every shared segment — so no
``/dev/shm`` blocks outlive the failure.  An exception *raised by* a
job, in contrast, leaves the pool healthy: it is shipped back, rebuilt
on the master, annotated with the worker rank, and re-raised.
"""

from __future__ import annotations

import atexit
import importlib
import os
import pickle
import queue as queue_module
import threading
import time
import traceback
from typing import Callable, Sequence

import multiprocessing

from repro.errors import ProtocolError
from repro.obs.metrics import LATENCY_BUCKETS, get_registry
from repro.obs.tracer import get_tracer
from repro.parallel.shmem import SharedArrayPool, detach_all

#: Globals a job function can read inside a worker process.  ``None`` on
#: the master.  ``WORKER_RNG`` is the rank's independent random stream,
#: derived spawn-safely from the pool seed (see
#: :func:`repro.util.seeding.rank_generator`).
WORKER_RANK: int | None = None
WORKER_COUNT: int | None = None
WORKER_RNG = None

_POLL_SECONDS = 0.05


def default_start_method() -> str:
    """``fork`` where the platform offers it (fast), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def annotate_error(error: BaseException, note: str) -> None:
    """Attach ``note`` to ``error`` (``add_note`` on 3.11+, args fold)."""
    if hasattr(error, "add_note"):  # Python >= 3.11
        error.add_note(note)
    elif error.args:
        error.args = (f"{error.args[0]} [{note}]",) + error.args[1:]
    else:
        error.args = (note,)


def _pack_error(error: BaseException) -> dict:
    """Serialize a worker exception for the trip home.

    The exception object itself is pickled when possible (so the master
    re-raises the genuine type); the repr/traceback fallback covers
    exceptions holding unpicklable state.
    """
    try:
        blob = pickle.dumps(error)
    except Exception:
        blob = None
    return {
        "blob": blob,
        "repr": repr(error),
        "traceback": traceback.format_exc(),
        "notes": list(getattr(error, "__notes__", ())),
    }


def _unpack_error(packed: dict, rank: int) -> BaseException:
    error: BaseException | None = None
    if packed["blob"] is not None:
        try:
            error = pickle.loads(packed["blob"])
        except Exception:
            error = None
    if error is None:
        error = ProtocolError(
            f"worker job failed with {packed['repr']}\n{packed['traceback']}"
        )
    for note in packed["notes"]:
        if note not in getattr(error, "__notes__", ()):
            annotate_error(error, note)
    annotate_error(error, f"raised in worker rank {rank}")
    return error


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #

_RESOLVED: dict[str, Callable] = {}


def _resolve(target: str) -> Callable:
    func = _RESOLVED.get(target)
    if func is None:
        module_name, _, attr = target.partition(":")
        if not module_name or not attr:
            raise ProtocolError(
                f"job target must look like 'module:function', got {target!r}"
            )
        func = getattr(importlib.import_module(module_name), attr)
        _RESOLVED[target] = func
    return func


def _worker_main(rank, num_workers, seed, task_queue, result_queue):
    """The worker loop: pull jobs, run them, report outcomes."""
    global WORKER_RANK, WORKER_COUNT, WORKER_RNG
    WORKER_RANK = rank
    WORKER_COUNT = num_workers
    from repro.context import default, use
    from repro.util.seeding import rank_generator

    WORKER_RNG = rank_generator(seed, rank)
    # A fork inherits the forking thread's run context (a process
    # backend, a recording tracer): jobs here start from the default,
    # on the simulator.
    with use(default()):
        while True:
            item = task_queue.get()
            if item is None:
                break
            job_id, target, payload = item
            try:
                value = _resolve(target)(payload)
                message = (rank, job_id, True, value)
            except BaseException as error:  # noqa: BLE001 - shipped to master
                message = (rank, job_id, False, _pack_error(error))
            try:
                result_queue.put(message)
            except Exception as error:  # pragma: no cover - unpicklable value
                result_queue.put((rank, job_id, False, _pack_error(error)))
    detach_all()


def _sleep_kernel(payload) -> str:
    """Busy job for the robustness tests: sleep ``payload`` seconds."""
    time.sleep(float(payload))
    return "slept"


def _echo_kernel(payload):
    """Identity job (pool smoke tests)."""
    return payload


def _raise_kernel(payload):
    """Failing job (pool error-path tests): raises an annotated ValueError."""
    error = ValueError(f"boom on {payload!r}")
    annotate_error(error, "kernel-side note")
    raise error


def _rank_probe(payload):
    """Report this worker's rank/pid and first RNG draws (seeding tests)."""
    draws = int(payload.get("draws", 0))
    return {
        "rank": WORKER_RANK,
        "count": WORKER_COUNT,
        "pid": os.getpid(),
        "draws": (
            WORKER_RNG.integers(0, 2**63, size=draws).tolist() if draws else []
        ),
    }


# ---------------------------------------------------------------------- #
# master side
# ---------------------------------------------------------------------- #


class WorkerPool:
    """``num_workers`` persistent ranks plus the segments they share."""

    def __init__(
        self,
        num_workers: int,
        *,
        start_method: str | None = None,
        seed: int = 0,
    ) -> None:
        if num_workers < 1:
            raise ProtocolError(
                f"a worker pool needs at least one rank, got {num_workers}"
            )
        if WORKER_RANK is not None:
            # e.g. run_many(executor="process") over plans that
            # themselves ask for backend="process".
            raise ProtocolError(
                "nested worker pools are not supported: this process is "
                f"already worker rank {WORKER_RANK}"
            )
        self.num_workers = num_workers
        self.start_method = start_method or default_start_method()
        self.seed = seed
        self.shm = SharedArrayPool()
        # Serializes whole jobs (and the segment allocator) when several
        # threads share one pool — e.g. run_many threads whose plans all
        # select backend="process".  Reentrant so a caller may hold it
        # around a lease + broadcast sequence.
        self.lock = threading.RLock()
        self._context = multiprocessing.get_context(self.start_method)
        self._results = self._context.Queue()
        self._tasks = []
        self._processes = []
        self._job_counter = 0
        self._closed = False
        self._broken: str | None = None
        for rank in range(num_workers):
            tasks = self._context.Queue()
            process = self._context.Process(
                target=_worker_main,
                args=(rank, num_workers, seed, tasks, self._results),
                name=f"repro-worker-{rank}",
                daemon=True,
            )
            process.start()
            self._tasks.append(tasks)
            self._processes.append(process)

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def pids(self) -> list[int]:
        """Worker PIDs by rank (the robustness tests SIGKILL one)."""
        return [process.pid for process in self._processes]

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_usable(self) -> None:
        if self._closed:
            raise ProtocolError(
                "worker pool is closed"
                + (f" (reason: {self._broken})" if self._broken else "")
            )

    # ------------------------------------------------------------------ #
    # job execution
    # ------------------------------------------------------------------ #

    def broadcast(
        self,
        target: str,
        payloads: Sequence,
        *,
        timeout: float | None = None,
        label: str = "job",
    ) -> list:
        """Run ``payloads[r]`` on rank ``r`` for every rank; barrier.

        Returns the per-rank results in rank order once *all* ranks have
        replied.  A worker death or deadline overrun terminates the pool
        and raises :class:`ProtocolError`; an exception raised by the
        job itself is re-raised (lowest rank first) with the pool left
        healthy.
        """
        self._check_usable()
        if len(payloads) != self.num_workers:
            raise ProtocolError(
                f"broadcast needs one payload per rank "
                f"({self.num_workers}), got {len(payloads)}"
            )
        jobs = []
        for rank, payload in enumerate(payloads):
            jobs.append((rank, target, payload))
        registry = get_registry()
        started = time.perf_counter() if registry.enabled else 0.0
        with get_tracer().span(
            "pool.barrier",
            category="barrier",
            label=label,
            workers=self.num_workers,
        ):
            outcomes = self._run(jobs, timeout=timeout, label=label)
        if registry.enabled:
            registry.counter(
                "repro_pool_broadcasts_total", workers=str(self.num_workers)
            ).inc()
            registry.histogram(
                "repro_pool_barrier_seconds", buckets=LATENCY_BUCKETS
            ).observe(time.perf_counter() - started)
        failures = [
            (rank, value)
            for rank, (ok, value) in enumerate(outcomes)
            if not ok
        ]
        if failures:
            rank, packed = failures[0]
            raise _unpack_error(packed, rank)
        return [value for _, value in outcomes]

    def scatter(
        self,
        target: str,
        items: Sequence,
        *,
        timeout: float | None = None,
        label: str = "job",
    ) -> list:
        """Deal ``items`` round-robin across ranks; results in item order."""
        self._check_usable()
        if not items:
            return []
        jobs = [
            (index % self.num_workers, target, payload)
            for index, payload in enumerate(items)
        ]
        outcomes = self._run(jobs, timeout=timeout, label=label)
        for index, (ok, value) in enumerate(outcomes):
            if not ok:
                raise _unpack_error(value, index % self.num_workers)
        return [value for _, value in outcomes]

    def _run(
        self, jobs: list, *, timeout: float | None, label: str
    ) -> list:
        """Submit ``(rank, target, payload)`` jobs; gather in job order."""
        with self.lock:
            return self._run_locked(jobs, timeout=timeout, label=label)

    def _run_locked(
        self, jobs: list, *, timeout: float | None, label: str
    ) -> list:
        pending: dict[int, int] = {}  # job id -> rank
        order: list[int] = []
        for rank, target, payload in jobs:
            job_id = self._job_counter
            self._job_counter += 1
            pending[job_id] = rank
            order.append(job_id)
            self._tasks[rank].put((job_id, target, payload))
        deadline = None if timeout is None else time.monotonic() + timeout
        collected: dict[int, tuple[bool, object]] = {}
        while pending:
            wait = _POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._fail(
                        f"{label} timed out after {timeout:.3g}s waiting for "
                        f"worker rank(s) {sorted(set(pending.values()))}"
                    )
                wait = min(wait, remaining)
            try:
                rank, job_id, ok, value = self._results.get(timeout=wait)
            except queue_module.Empty:
                self._check_workers(pending, label)
                continue
            if job_id in pending:
                del pending[job_id]
                collected[job_id] = (ok, value)
        return [collected[job_id] for job_id in order]

    def _check_workers(self, pending: dict, label: str) -> None:
        dead = [
            (rank, self._processes[rank].exitcode)
            for rank in sorted(set(pending.values()))
            if not self._processes[rank].is_alive()
        ]
        if dead:
            description = ", ".join(
                f"rank {rank} (exit code {code})" for rank, code in dead
            )
            self._fail(f"{label} lost worker {description}")

    def _fail(self, reason: str) -> None:
        """Terminate the pool and surface ``reason`` as a ProtocolError.

        The active span path (engine run > superstep/stage > round >
        barrier) is folded into the message: even the default no-op
        tracer tracks span *names*, so a timeout or crash deep inside
        ``run_many`` names the enclosing work without a debugger.
        """
        path = get_tracer().current_path()
        if path:
            reason = f"{reason} [active spans: {' > '.join(path)}]"
        self.terminate(reason=reason)
        raise ProtocolError(reason)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self, *, join_timeout: float = 5.0) -> None:
        """Stop workers gracefully and unlink every shared segment."""
        if self._closed:
            return
        self._closed = True
        for tasks in self._tasks:
            try:
                tasks.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._processes:
            process.join(timeout=join_timeout)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=join_timeout)
        self._drain_queues()
        self.shm.destroy()

    def terminate(self, *, reason: str | None = None) -> None:
        """Kill workers immediately and unlink every shared segment."""
        if self._closed:
            return
        self._closed = True
        self._broken = reason
        for process in self._processes:
            if process.is_alive():
                process.kill()
        for process in self._processes:
            process.join(timeout=5.0)
        self._drain_queues()
        self.shm.destroy()

    def _drain_queues(self) -> None:
        for q in self._tasks + [self._results]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - context-specific
                pass


# ---------------------------------------------------------------------- #
# shared pools
# ---------------------------------------------------------------------- #

_SHARED_POOLS: dict[tuple, WorkerPool] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def get_pool(
    num_workers: int,
    *,
    start_method: str | None = None,
    seed: int = 0,
) -> WorkerPool:
    """A process-wide shared pool (spawned once per configuration).

    Spawning workers costs tens to hundreds of milliseconds; protocol
    runs under ``backend="process"`` would pay it per run without this
    cache.  Pools live until :func:`shutdown_pools` (registered at
    interpreter exit) or until they break.
    """
    key = (num_workers, start_method or default_start_method(), seed)
    # Check-then-create must be atomic: run_many's thread executor asks
    # for the same configuration from many threads at once, and a lost
    # race would orphan a fully-spawned pool (workers + shared segments
    # nobody ever shuts down).
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(key)
        if pool is None or pool.closed:
            pool = WorkerPool(
                num_workers, start_method=start_method, seed=seed
            )
            _SHARED_POOLS[key] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every shared pool and unlink their segments."""
    with _SHARED_POOLS_LOCK:
        for pool in list(_SHARED_POOLS.values()):
            pool.shutdown()
        _SHARED_POOLS.clear()


atexit.register(shutdown_pools)
