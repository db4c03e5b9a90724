"""Persistent worker-process pool: whole queries, dealt to worker ranks.

A :class:`WorkerPool` owns ``num_workers`` long-lived OS processes
("ranks"), one task queue per rank and one shared result queue.  Its one
entry point, :meth:`WorkerPool.scatter`, deals a work list round-robin
across the ranks and returns the results in item order.  That is the
only parallelism the repository runs for real: queries are independent,
so ``run_many(executor="process")`` scatters whole plans and
``run(..., backend="process")`` sends one whole run to one rank.  A
round of the simulated network is never split across processes.

Jobs name their function as ``"module:callable"`` and carry one
picklable payload.  Workers import the target lazily and cache it.

Failure handling is explicit: a worker that dies (e.g. SIGKILL) or a
job that exceeds its deadline raises :class:`~repro.errors.ProtocolError`
naming the guilty rank(s), and the pool terminates itself.  An exception
*raised by* a job, in contrast, leaves the pool healthy: it is shipped
back, rebuilt on the master, annotated with the worker rank, and
re-raised.
"""

from __future__ import annotations

import atexit
import importlib
import pickle
import queue as queue_module
import threading
import time
import traceback
from typing import Callable, Sequence

import multiprocessing

from repro.errors import ProtocolError
from repro.obs.tracer import get_tracer

#: This process's rank inside a worker, ``None`` on the master.
WORKER_RANK: int | None = None

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


def _worker_main(rank, task_queue, result_queue):
    """The worker loop: pull jobs, run them, report outcomes."""
    global WORKER_RANK
    WORKER_RANK = rank
    from repro.context import default, use

    # A fork inherits the forking thread's run context (a recording
    # tracer, an auditor): jobs here start from the default.
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


# ---------------------------------------------------------------------- #
# master side
# ---------------------------------------------------------------------- #


def _refuse_nesting() -> None:
    """A worker builds no pool of its own (e.g. ``run_many(executor=
    "process")`` over plans that ask for ``backend="process"``)."""
    if WORKER_RANK is not None:
        raise ProtocolError(
            "nested worker pools are not supported: this process is "
            f"already worker rank {WORKER_RANK}"
        )


class WorkerPool:
    """``num_workers`` persistent ranks behind one job API."""

    def __init__(
        self, num_workers: int, *, start_method: str | None = None
    ) -> None:
        if num_workers < 1:
            raise ProtocolError(
                f"a worker pool needs at least one rank, got {num_workers}"
            )
        _refuse_nesting()
        self.num_workers = num_workers
        self.start_method = start_method or default_start_method()
        # Serializes whole job lists when several threads share one
        # pool: results come back on one queue, and a caller collects
        # only the job ids it submitted.
        self._lock = threading.Lock()
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
                args=(rank, tasks, self._results),
                name=f"repro-worker-{rank}",
                daemon=True,
            )
            process.start()
            self._tasks.append(tasks)
            self._processes.append(process)

    @property
    def pids(self) -> list[int]:
        """Worker PIDs by rank (the robustness tests SIGKILL one)."""
        return [process.pid for process in self._processes]

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # job execution
    # ------------------------------------------------------------------ #

    def scatter(
        self,
        target: str,
        items: Sequence,
        *,
        timeout: float | None = None,
        label: str = "job",
    ) -> list:
        """Deal ``items`` round-robin across ranks; results in item order.

        Item ``i`` runs on rank ``i % num_workers``, so a single item
        always runs on rank 0.  A worker death or deadline overrun
        terminates the pool and raises :class:`ProtocolError`; an
        exception raised by a job is re-raised (lowest item first) with
        the pool left healthy.
        """
        if self._closed:
            raise ProtocolError(
                "worker pool is closed"
                + (f" (reason: {self._broken})" if self._broken else "")
            )
        if not items:
            return []
        with self._lock:
            outcomes = self._run(items, target, timeout=timeout, label=label)
        for index, (ok, value) in enumerate(outcomes):
            if not ok:
                raise _unpack_error(value, index % self.num_workers)
        return [value for _, value in outcomes]

    def _run(
        self, items: Sequence, target: str, *, timeout: float | None, label: str
    ) -> list:
        """Submit one job per item; gather ``(ok, value)`` in item order."""
        pending: dict[int, int] = {}  # job id -> rank
        order: list[int] = []
        for index, payload in enumerate(items):
            rank = index % self.num_workers
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

        The active span path (e.g. ``run_many > pool.scatter``) is folded
        into the message: even the default no-op tracer tracks span
        *names*, so a timeout or crash names the enclosing work without
        a debugger.
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
        """Stop workers gracefully."""
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

    def terminate(self, *, reason: str | None = None) -> None:
        """Kill workers immediately."""
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


def get_pool(num_workers: int, *, start_method: str | None = None) -> WorkerPool:
    """A process-wide shared pool (spawned once per configuration).

    Spawning workers costs tens to hundreds of milliseconds; runs under
    ``backend="process"`` would pay it per run without this cache.
    Pools live until :func:`shutdown_pools` (registered at interpreter
    exit) or until they break.
    """
    # before the lock: a worker forked while it was held inherits it held
    _refuse_nesting()
    key = (num_workers, start_method or default_start_method())
    # Check-then-create must be atomic: run_many's thread executor asks
    # for the same configuration from many threads at once, and a lost
    # race would orphan a fully-spawned pool nobody ever shuts down.
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(key)
        if pool is None or pool.closed:
            pool = WorkerPool(num_workers, start_method=start_method)
            _SHARED_POOLS[key] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every shared pool."""
    with _SHARED_POOLS_LOCK:
        for pool in list(_SHARED_POOLS.values()):
            pool.shutdown()
        _SHARED_POOLS.clear()


atexit.register(shutdown_pools)
