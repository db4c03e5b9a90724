"""Session-scoped engine: pin a topology, serve many queries warm.

The module-level engine (:mod:`repro.engine`) is deliberately
stateless: each ``run()`` builds its topology artifacts, optimizes its
plan, and tears everything down.  That is the right contract for
experiments and exactly the wrong one for a serving deployment, where
thousands of queries arrive against *one* network (Hu, Koutris &
Blanas parameterize every cost and every algorithm by the topology, so
the topology is the natural unit of session state).

:class:`EngineSession` pins a topology — and optionally a default
distribution, catalog, and execution backend — and keeps three kinds of
state warm across queries:

* **topology artifacts** (:mod:`repro.topology.artifacts`): routing
  index, compute orders, rank tables — built once at
  session construction, shared by every cluster any query builds;
* **compiled plans** (:class:`repro.plan.optimizer.PlanCache`): repeated
  query shapes skip the join-order and protocol search entirely;
* **the worker pool** (:func:`repro.parallel.pool.get_pool`): sessions
  on the process backend prestart their ranks, so the first query does
  not pay the fork-and-handshake cost.

Warm serving is *byte-identical* to cold one-shot runs: artifacts and
cached plans are pure functions of (topology, placement statistics),
so ``session.run(...)`` produces the same ledgers, the same storage
samples, and the same reports as ``repro.run(...)`` — the property
``tests/properties/test_session_identity.py`` checks on random trees
and the ``serve_mix`` benchmark workload checks on every query.

Quick start::

    import repro

    tree = repro.fat_tree(2, 4)
    with repro.EngineSession(tree) as session:
        for dist in workload:
            report = session.run("set-intersection", dist)
    print(session.summary())

``session.run_many`` adds the serve-layer traffic controls the
one-shot engine has no state for: a lower-bound admission gate
(``max_bound`` — reject queries whose *certified minimum* cost already
exceeds the budget, before spending anything on them) and
cheapest-bound-first scheduling (``schedule="cost"``) for concurrent
batches.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro.context import use
from repro.engine import RunPlan, run_many as _engine_run_many
from repro.engine import run_plan as _engine_run_plan
from repro.engine import run_with_result as _engine_run_with_result
from repro.errors import AnalysisError
from repro.plan.optimizer import PlanCache
from repro.registry import get_task
from repro.topology.artifacts import ArtifactCache
from repro.topology.tree import TreeTopology

SCHEDULES = ("cost", "fifo")


class EngineSession:
    """A warm, multi-tenant serving engine pinned to one topology.

    Parameters
    ----------
    tree:
        The session's network.  Artifacts for it are prebuilt eagerly
        (including the routing index, the heaviest piece), so the first
        query runs as warm as the thousandth.
    distribution:
        Optional default data placement; ``session.run(task)`` without
        an explicit distribution uses it.
    catalog:
        Optional default relation catalog for :meth:`run_plan`.
    backend, num_workers:
        Pinned execution substrate, forwarded to every run unless a
        call overrides it.  ``backend="process"`` prestarts the shared
        worker pool at construction.
    artifact_cache, plan_cache:
        Bring-your-own caches — several sessions on one box may share
        one :class:`~repro.topology.artifacts.ArtifactCache` (it is
        keyed by topology fingerprint, so tenants on different networks
        never collide).  Defaults to fresh private instances.

    Sessions are context managers for symmetry with the rest of the
    API; exiting is cheap (caches are garbage-collected, the worker
    pool is process-wide and stays warm for other sessions).
    """

    def __init__(
        self,
        tree: TreeTopology,
        *,
        distribution=None,
        catalog: dict | None = None,
        backend: str | None = None,
        num_workers: int | None = None,
        artifact_cache: ArtifactCache | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        if num_workers is not None and backend != "process":
            raise AnalysisError(
                "num_workers only applies to backend='process', "
                f"not {backend!r}"
            )
        self.tree = tree
        self._distribution = distribution
        self._catalog = catalog
        self._backend = backend
        self._num_workers = num_workers
        self.artifact_cache = (
            artifact_cache if artifact_cache is not None else ArtifactCache()
        )
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._closed = False
        self._runs = 0
        self._plan_runs = 0
        self._batches = 0
        self._rejected = 0
        # Prebuild the pinned topology's artifacts, routing index
        # included: session construction is the warm-up, queries are not.
        self._artifacts = self.artifact_cache.get(tree)
        self._artifacts.oracle.routing_index
        if backend == "process":
            from repro.parallel.pool import get_pool

            get_pool(num_workers if num_workers is not None else 2)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "EngineSession":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Mark the session closed; further runs raise.

        Deliberately does *not* shut down the worker pool: pools are
        process-wide and shared across sessions (and with
        ``run_many(executor="process")``), so a tenant leaving must not
        cold-start its neighbours.
        """
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise AnalysisError("session is closed")

    # ------------------------------------------------------------------ #
    # single runs (the engine API, with pinned defaults)
    # ------------------------------------------------------------------ #

    def _resolve_substrate(
        self, backend: str | None, num_workers: int | None
    ) -> tuple[str | None, int | None]:
        if backend is None:
            backend = self._backend
            if num_workers is None:
                num_workers = self._num_workers
        return backend, num_workers

    def run(self, task: str, distribution=None, **kwargs):
        """:func:`repro.run` against the session's warm state."""
        report, _ = self.run_with_result(task, distribution, **kwargs)
        return report

    def run_with_result(self, task: str, distribution=None, **kwargs):
        """:func:`repro.engine.run_with_result`, warm."""
        self._check_open()
        if distribution is None:
            distribution = self._distribution
        if distribution is None:
            raise AnalysisError(
                "no distribution: pass one to the call or pin one "
                "on the session"
            )
        backend, num_workers = self._resolve_substrate(
            kwargs.pop("backend", None), kwargs.pop("num_workers", None)
        )
        with use(artifacts=self.artifact_cache):
            out = _engine_run_with_result(
                task,
                self.tree,
                distribution,
                backend=backend,
                num_workers=num_workers,
                **kwargs,
            )
        self._runs += 1
        return out

    def run_plan(self, query, catalog: dict | None = None, **kwargs):
        """:func:`repro.run_plan` with the session's plan cache."""
        self._check_open()
        if catalog is None:
            catalog = self._catalog
        if catalog is None:
            raise AnalysisError(
                "no catalog: pass one to the call or pin one on the session"
            )
        kwargs.setdefault("plan_cache", self.plan_cache)
        with use(artifacts=self.artifact_cache):
            out = _engine_run_plan(query, self.tree, catalog, **kwargs)
        self._plan_runs += 1
        return out

    # ------------------------------------------------------------------ #
    # batched serving
    # ------------------------------------------------------------------ #

    def _normalize(self, plan) -> RunPlan:
        if isinstance(plan, dict):
            plan = dict(plan)
            plan.setdefault("tree", self.tree)
            if plan.get("distribution") is None:
                plan["distribution"] = self._distribution
            plan = RunPlan(**plan)
        if plan.distribution is None:
            raise AnalysisError(
                "no distribution: set one on the plan or pin one "
                "on the session"
            )
        if plan.backend is None:
            backend, num_workers = self._resolve_substrate(
                None, plan.num_workers
            )
            if backend is not None:
                # Never mutate a caller's plan object.
                plan = replace(
                    plan, backend=backend, num_workers=num_workers
                )
        return plan

    def _lower_bound(self, plan: RunPlan) -> float | None:
        task_spec = get_task(plan.task)
        if task_spec.lower_bound is None:
            return None
        bound_opts = {
            name: plan.opts[name]
            for name in task_spec.lower_bound_opts
            if name in plan.opts
        }
        return task_spec.lower_bound(
            plan.tree, plan.distribution, **bound_opts
        ).value

    def lower_bound(self, plan: RunPlan | dict) -> float | None:
        """The certified lower bound :meth:`run_many` admits against.

        ``None`` when the plan's task registers no bound (such plans
        are always admitted and scheduled last under ``"cost"``).
        Exposed so callers can pick an admission budget from the
        workload itself.
        """
        self._check_open()
        return self._lower_bound(self._normalize(plan))

    def run_many(
        self,
        plans: Iterable[RunPlan | dict],
        *,
        workers: int | None = None,
        executor: str = "thread",
        max_bound: float | None = None,
        schedule: str = "cost",
    ) -> list:
        """Serve a batch of plans against the session's warm state.

        Beyond :func:`repro.run_many` (whose ``workers`` / ``executor``
        semantics this inherits), the serve layer adds two traffic
        controls built on the paper's lower bounds:

        * ``max_bound`` — *admission control*.  Each plan's certified
          lower bound is computed up front (cheap: a closed-form
          formula over placement statistics); plans whose bound already
          exceeds the budget are rejected without running, and their
          result slot is ``None``.  The bound is a promise, not an
          estimate: an admitted query can cost more than its bound, but
          a rejected one could never have cost less.
        * ``schedule`` — ``"cost"`` (default) executes admitted plans
          cheapest-bound-first, the classic shortest-job-first
          approximation for batch latency; ``"fifo"`` preserves
          submission order.  Results always come back in submission
          order regardless.
        """
        self._check_open()
        if schedule not in SCHEDULES:
            raise AnalysisError(
                f"schedule must be one of {SCHEDULES}, got {schedule!r}"
            )
        normalized = [self._normalize(plan) for plan in plans]
        self._batches += 1
        admitted: list[int] = []
        bounds: dict[int, float] = {}
        results: list = [None] * len(normalized)
        for index, plan in enumerate(normalized):
            bound = (
                self._lower_bound(plan)
                if (max_bound is not None or schedule == "cost")
                else None
            )
            if bound is not None:
                bounds[index] = bound
            if max_bound is not None and bound is not None and bound > max_bound:
                self._rejected += 1
                continue
            admitted.append(index)
        if schedule == "cost":
            # Cheapest certified bound first; unbounded tasks last,
            # submission order breaking ties (sort is stable).
            admitted.sort(key=lambda i: bounds.get(i, float("inf")))
        with use(artifacts=self.artifact_cache):
            reports = _engine_run_many(
                [normalized[i] for i in admitted],
                workers=workers,
                executor=executor,
            )
        for position, report in zip(admitted, reports):
            results[position] = report
        self._runs += len(admitted)
        return results

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def summary(self) -> dict:
        """Session state in one dict — for logs and the serve CLI."""
        return {
            "topology": self.tree.name,
            "fingerprint": self._artifacts.fingerprint,
            "backend": self._backend or "ambient",
            "num_workers": self._num_workers,
            "runs": self._runs,
            "plan_runs": self._plan_runs,
            "batches": self._batches,
            "rejected": self._rejected,
            "artifact_cache": self.artifact_cache.stats(),
            "plan_cache": self.plan_cache.stats(),
        }
