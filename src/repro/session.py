"""Session-scoped engine: pin a topology, serve many queries warm.

The module-level engine (:mod:`repro.engine`) is deliberately
stateless: each ``run()`` builds its topology artifacts, optimizes its
plan, and tears everything down.  That is the right contract for
experiments and exactly the wrong one for a serving deployment, where
thousands of queries arrive against *one* network (Hu, Koutris &
Blanas parameterize every cost and every algorithm by the topology, so
the topology is the natural unit of session state).

:class:`EngineSession` pins a topology — and optionally a default
distribution and catalog — and keeps two kinds of state warm across
queries:

* **topology artifacts** (:mod:`repro.topology.artifacts`): routing
  index and compute order — built once at session construction, shared
  by every cluster any query builds;
* **compiled plans** (:class:`repro.plan.optimizer.PlanCache`): repeated
  query shapes skip the join-order and protocol search entirely.

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

``session.run_many`` runs a batch as :func:`repro.run_many` does (in the
caller, or over the worker pool with ``workers=n``) and adds the one
serve-layer traffic control the one-shot engine has no state for: a
lower-bound admission gate (``max_bound`` — reject queries whose
*certified minimum* cost already exceeds the budget, before spending
anything on them).  Reports come back together in submission order,
so the order the admitted plans run in changes no report.
"""

from __future__ import annotations

from typing import Iterable

from repro.context import use
from repro.engine import RunPlan, run as _engine_run
from repro.engine import run_many as _engine_run_many
from repro.engine import run_plan as _engine_run_plan
from repro.engine import run_with_result as _engine_run_with_result
from repro.errors import AnalysisError
from repro.plan.optimizer import PlanCache
from repro.registry import get_task
from repro.topology.artifacts import ArtifactCache
from repro.topology.tree import TreeTopology


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

    A session owns two private caches: ``artifact_cache`` (an
    :class:`~repro.topology.artifacts.ArtifactCache`, installed around
    every run) and ``plan_cache`` (a
    :class:`~repro.plan.optimizer.PlanCache`, used by :meth:`run_plan`).
    Sessions are context managers for symmetry with the rest of the
    API; exiting is cheap (caches are garbage-collected).
    """

    def __init__(
        self,
        tree: TreeTopology,
        *,
        distribution=None,
        catalog: dict | None = None,
    ) -> None:
        self.tree = tree
        self._distribution = distribution
        self._catalog = catalog
        self.artifact_cache = ArtifactCache()
        self.plan_cache = PlanCache()
        self._closed = False
        self._runs = 0
        self._plan_runs = 0
        self._batches = 0
        self._rejected = 0
        # Prebuild the pinned topology's artifacts, routing index
        # included: session construction is the warm-up, queries are not.
        self._artifacts = self.artifact_cache.get(tree)
        self._artifacts.oracle.routing_index

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "EngineSession":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Mark the session closed; further runs raise."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise AnalysisError("session is closed")

    # ------------------------------------------------------------------ #
    # single runs (the engine API, with pinned defaults)
    # ------------------------------------------------------------------ #

    def run(self, task: str, distribution=None, **kwargs):
        """:func:`repro.run` against the session's warm state (a
        ``backend="process"`` run builds its artifacts on the worker)."""
        return self._run(_engine_run, task, distribution, kwargs)

    def run_with_result(self, task: str, distribution=None, **kwargs):
        """:func:`repro.engine.run_with_result`, warm."""
        return self._run(_engine_run_with_result, task, distribution, kwargs)

    def _run(self, entry, task: str, distribution, kwargs: dict):
        self._check_open()
        if distribution is None:
            distribution = self._distribution
        if distribution is None:
            raise AnalysisError(
                "no distribution: pass one to the call or pin one "
                "on the session"
            )
        with use(artifacts=self.artifact_cache):
            out = entry(task, self.tree, distribution, **kwargs)
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
        with use(artifacts=self.artifact_cache):
            out = _engine_run_plan(
                query, self.tree, catalog, plan_cache=self.plan_cache, **kwargs
            )
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
        are always admitted).
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
        max_bound: float | None = None,
    ) -> list:
        """Serve a batch of plans against the session's warm state.

        ``workers`` is :func:`repro.run_many`'s: ``None`` runs the
        batch in the caller, an int deals it over that many worker
        processes.  Results come back in submission order.  Beyond
        that, the serve layer adds *admission control* built on the
        paper's lower bounds:

        * ``max_bound`` — each plan's certified lower bound is computed
          up front (cheap: a closed-form formula over placement
          statistics); plans whose bound already exceeds the budget are
          rejected without running, and their result slot is ``None``.
          Only a bound that holds for every input
          (``TaskSpec.bound_holds_per_instance``, true today for the
          graph tasks alone) promises that a rejected query could never
          have cost less.  The paper's Theorem 1/3/6 bounds are
          worst-case: a run on an easy instance can cost less than its
          bound (set-intersection beats Theorem 1 on 30 of the 32
          standard-suite instances), so a budget over them rejects
          queries that might have fit.  Bounds that say which kind
          they are, and admission on instance bounds only, are ROADMAP
          item 1(b).  Without ``max_bound`` no bound is computed here:
          each admitted run computes its own.
        """
        self._check_open()
        normalized = [self._normalize(plan) for plan in plans]
        self._batches += 1

        def admit(plan: RunPlan) -> bool:
            if max_bound is None:
                return True
            bound = self._lower_bound(plan)
            return bound is None or bound <= max_bound

        admitted = [i for i, plan in enumerate(normalized) if admit(plan)]
        self._rejected += len(normalized) - len(admitted)
        results: list = [None] * len(normalized)
        with use(artifacts=self.artifact_cache):
            reports = _engine_run_many(
                [normalized[i] for i in admitted], workers=workers
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
            "runs": self._runs,
            "plan_runs": self._plan_runs,
            "batches": self._batches,
            "rejected": self._rejected,
            "artifact_cache": self.artifact_cache.stats(),
            "plan_cache": self.plan_cache.stats(),
        }
