"""The execution engine: one ``run()`` for every task and protocol.

The engine looks the task and protocol up in :mod:`repro.registry`,
routes keyword arguments by the protocol's declared capabilities (the
seed only goes to protocols that accept one), verifies the answer with
the task's
verifier (the reproduction never reports cost for a wrong answer),
computes the task's lower bound, and packages everything into a
:class:`repro.report.RunReport`.

Batch execution goes through :func:`run_many`, which returns reports
in plan order.  A batch runs in the caller, plan after plan under the
caller's run context, or whole plans are dealt over the shared worker
pool (:func:`repro.parallel.pool.get_pool`, one ``ProcessPoolExecutor``
per rank); parallelism is per query, never inside one.  Every report's
cost is its Section-2 ledger, so the path changes only wall time.
``run(..., backend="process")`` is the pool with one plan, so it runs
on rank 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Iterable

import numpy as np

from repro.context import RunContext, current, use
from repro.report import RunReport
from repro.core.cartesian.lower_bounds import cartesian_lower_bound
from repro.core.intersection.lower_bound import intersection_lower_bound
from repro.core.sorting.lower_bound import sorting_lower_bound
from repro.core.sorting.ordering import verify_sorted_output
from repro.data.distribution import Distribution
from repro.errors import AnalysisError, ProtocolError, annotate_error
from repro.queries.aggregate import GroupOutputs, groupby_lower_bound
from repro.queries.join import JoinOutputs, equijoin_lower_bound
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from repro.registry import BACKENDS, get_protocol, get_task, register_task
from repro.sim.protocol import ProtocolResult
from repro.topology.artifacts import ArtifactCache
from repro.topology.tree import TreeTopology
from repro.util.grouping import sorted_unique

# Importing these modules is what populates the registry: every protocol
# self-registers at import time.  The engine pulls them in explicitly so
# ``from repro.engine import run`` alone sees the full catalog.
import repro.baselines.gather  # noqa: F401
import repro.baselines.hypercube  # noqa: F401
import repro.baselines.uniform_hash  # noqa: F401
import repro.core.cartesian.star  # noqa: F401
import repro.core.cartesian.tree  # noqa: F401
import repro.core.cartesian.unequal  # noqa: F401
import repro.core.cartesian.whc  # noqa: F401
import repro.core.intersection.star  # noqa: F401
import repro.core.intersection.tree  # noqa: F401
import repro.core.sorting.terasort  # noqa: F401
import repro.core.sorting.wts  # noqa: F401
import repro.graphs.components  # noqa: F401
import repro.graphs.triangles  # noqa: F401
import repro.queries.aggregate  # noqa: F401
import repro.queries.join  # noqa: F401


def _verify_output_nodes(tree: TreeTopology, result: ProtocolResult) -> None:
    """Only compute nodes hold data (Section 2), outputs included."""
    if not result.outputs.keys() <= tree.compute_nodes:
        stray = next(node for node in result.outputs if node not in tree.compute_nodes)
        raise ProtocolError(
            f"{result.protocol} left output at {stray!r}, which is not a "
            "compute node"
        )


def _verify_intersection(
    tree: TreeTopology, distribution: Distribution, result: ProtocolResult
) -> None:
    """The emitted union must equal ``R ∩ S`` exactly."""
    expected = np.intersect1d(
        sorted_unique(distribution.relation("R")),
        sorted_unique(distribution.relation("S")),
        assume_unique=True,
    )
    found = (
        sorted_unique(np.concatenate(list(result.outputs.values())))
        if result.outputs
        else np.empty(0, np.int64)
    )
    if len(found) != len(expected) or np.any(found != expected):
        raise ProtocolError(
            f"{result.protocol} produced a wrong intersection "
            f"({len(found)} vs {len(expected)} elements)"
        )


def _verify_cartesian(
    tree: TreeTopology, distribution: Distribution, result: ProtocolResult
) -> None:
    """Every ``(r, s)`` pair must be enumerated exactly once in total."""
    expected = distribution.total("R") * distribution.total("S")
    produced = sum(o["num_pairs"] for o in result.outputs.values())
    if produced != expected:
        raise ProtocolError(
            f"{result.protocol} enumerated {produced} of {expected} pairs"
        )


def _verify_sorting(
    tree: TreeTopology, distribution: Distribution, result: ProtocolResult
) -> None:
    verify_sorted_output(
        tree,
        result.outputs,
        result.meta["order"],
        distribution.relation("R"),
    )


def _verify_equijoin(
    tree: TreeTopology, distribution: Distribution, result: ProtocolResult
) -> None:
    """The join must produce ``sum_k cnt_R(k) * cnt_S(k)`` pairs."""
    payload_bits = result.meta.get("payload_bits", DEFAULT_PAYLOAD_BITS)
    r_keys, _ = decode_tuples(
        distribution.relation("R"), payload_bits=payload_bits
    )
    s_keys, _ = decode_tuples(
        distribution.relation("S"), payload_bits=payload_bits
    )
    r_unique, r_counts = np.unique(r_keys, return_counts=True)
    s_unique, s_counts = np.unique(s_keys, return_counts=True)
    common, r_index, s_index = np.intersect1d(
        r_unique, s_unique, return_indices=True
    )
    expected = int(np.sum(r_counts[r_index] * s_counts[s_index]))
    produced = JoinOutputs.of(result.outputs).pair_bounds[-1]
    if produced != expected:
        raise ProtocolError(
            f"{result.protocol} joined {produced} of {expected} pairs"
        )


def _verify_aggregate(
    tree: TreeTopology, distribution: Distribution, result: ProtocolResult
) -> None:
    """Every distinct input key must appear at exactly one node."""
    payload_bits = result.meta.get("payload_bits", DEFAULT_PAYLOAD_BITS)
    keys, _ = decode_tuples(
        distribution.relation("R"), payload_bits=payload_bits
    )
    expected = len(sorted_unique(keys))
    produced = GroupOutputs.of(result.outputs).bounds[-1]
    if produced != expected:
        raise ProtocolError(
            f"{result.protocol} emitted {produced} of {expected} groups"
        )


register_task(
    "set-intersection",
    default_protocol="tree",
    verifier=_verify_intersection,
    lower_bound=intersection_lower_bound,
    aliases=("intersection",),
)
register_task(
    "cartesian-product",
    default_protocol="tree",
    verifier=_verify_cartesian,
    lower_bound=cartesian_lower_bound,
    aliases=("cartesian",),
)
register_task(
    "sorting",
    default_protocol="wts",
    verifier=_verify_sorting,
    lower_bound=sorting_lower_bound,
    aliases=("sort",),
)
register_task(
    "equijoin",
    default_protocol="tree",
    verifier=_verify_equijoin,
    lower_bound=equijoin_lower_bound,
    lower_bound_opts=("r_tag", "s_tag"),
    aliases=("join",),
)
register_task(
    "groupby-aggregate",
    default_protocol="tree",
    verifier=_verify_aggregate,
    lower_bound=groupby_lower_bound,
    lower_bound_opts=("tag", "payload_bits"),
    aliases=("aggregate", "groupby"),
)


def _run_artifacts(context: RunContext) -> ArtifactCache:
    """The context's artifact cache, or a one-shot cache for one run."""
    return ArtifactCache() if context.artifacts is None else context.artifacts


def run(
    task: str,
    tree: TreeTopology,
    distribution: Distribution,
    *,
    protocol: str | None = None,
    seed: int = 0,
    placement: str = "custom",
    verify: bool = True,
    backend: str | None = None,
    num_workers: int | None = None,
    **opts,
) -> RunReport:
    """Run one protocol on one instance and report cost versus bound.

    Parameters
    ----------
    task:
        Registered task name or alias (``"set-intersection"``,
        ``"cartesian"``, ``"sorting"``, ``"equijoin"``, ...).
    tree, distribution:
        The instance: a topology and an initial data placement on it.
    protocol:
        Protocol name from the catalog; defaults to the task's
        registered default (the paper's topology-aware algorithm).
    seed:
        Routed to the protocol only if its spec declares
        ``accepts_seed``; callers never need to know which ones do.
    placement:
        Label recorded in the report (the placement policy name).
    verify:
        Check the answer with the task's verifier before reporting.
    backend, num_workers:
        ``"sim"`` (default, ``None``) runs the query in this process.
        ``"process"`` sends it whole to rank 0 of the shared pool of
        ``num_workers`` processes (default 2, at least 1), as a one-plan
        :func:`run_many` on that pool: the report is the same, and the
        query's spans, metrics and audit checks stay on the worker.
    opts:
        Extra keyword arguments forwarded to the protocol unchanged
        (e.g. ``blocks=...`` for ablations, ``materialize=True``).
    """
    if backend not in (None, *BACKENDS):
        raise AnalysisError(
            f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
        )
    if num_workers is not None and backend != "process":
        raise AnalysisError(
            f"num_workers only applies to backend='process', not {backend!r}"
        )
    if backend == "process":
        plan = RunPlan(
            task, tree, distribution, protocol, seed, placement, verify, opts
        )
        started = perf_counter()
        workers = 2 if num_workers is None else num_workers
        (report,) = run_many([plan], workers=workers)
        # what the caller waited for: the trip to the worker included
        return replace(report, wall_time_s=perf_counter() - started)
    report, _ = run_with_result(
        task,
        tree,
        distribution,
        protocol=protocol,
        seed=seed,
        placement=placement,
        verify=verify,
        **opts,
    )
    return report


def run_with_result(
    task: str,
    tree: TreeTopology,
    distribution: Distribution,
    *,
    protocol: str | None = None,
    seed: int = 0,
    placement: str = "custom",
    verify: bool = True,
    **opts,
) -> tuple[RunReport, ProtocolResult]:
    """Like :func:`run` in this process, but also return the raw
    :class:`ProtocolResult`.

    The report strips per-node outputs (it is a summary row); pipeline
    consumers — the query-plan executor above all — need the outputs to
    materialize the next stage's input, so this variant hands back both.
    """
    task_spec = get_task(task)
    spec = get_protocol(task_spec.name, protocol or task_spec.default_protocol)
    context = current()
    tracer = context.tracer
    # The root span of a task execution: everything below — supersteps,
    # plan stages, rounds — nests under it.
    with tracer.span(
        f"engine.run {task_spec.name}",
        category="engine",
        task=task_spec.name,
        protocol=spec.name,
        topology=tree.name,
        placement=placement,
    ) as root:
        started = perf_counter()
        # A one-shot artifact scope: clusters the protocol builds
        # (one for most tasks, one per superstep for graph drivers)
        # share topology artifacts within this run; inside an
        # EngineSession the session's long-lived cache is reused
        # instead — run() is a thin one-shot session.
        with use(artifacts=_run_artifacts(context)):
            result = spec.call(tree, distribution, seed=seed, **opts)
        if verify and task_spec.verifier is not None:
            with tracer.span(
                "engine.verify", category="verify", task=task_spec.name
            ):
                _verify_output_nodes(tree, result)
                task_spec.verifier(tree, distribution, result)
        else:
            root.set(verify="skipped")
        bound = None
        if task_spec.lower_bound is not None:
            bound_opts = {
                name: opts[name]
                for name in task_spec.lower_bound_opts
                if name in opts
            }
            with tracer.span("engine.bound", category="bound"):
                bound = task_spec.lower_bound(
                    tree, distribution, **bound_opts
                )
        # what the caller waited for: protocol, verify and bound
        wall_time_s = perf_counter() - started
        root.set(
            cost=result.cost, rounds=result.rounds, wall_time_s=wall_time_s
        )
    auditor = context.auditor
    if auditor.enabled and bound is not None:
        auditor.check_bound(
            cost=result.cost,
            bound=bound.value,
            task=task_spec.name,
            protocol=result.protocol,
            per_instance=task_spec.bound_holds_per_instance,
        )
    meta = {
        "result": result.meta,
        "bound": bound.description if bound is not None else "",
    }
    report = RunReport(
        task=task_spec.name,
        protocol=result.protocol,
        topology=tree.name,
        placement=placement,
        input_size=distribution.total(),
        rounds=result.rounds,
        cost=result.cost,
        lower_bound=bound.value if bound is not None else 0.0,
        meta=meta,
        wall_time_s=wall_time_s,
    )
    return report, result


@dataclass
class RunPlan:
    """One cell of a batch: everything :func:`run` needs for one call."""

    task: str
    tree: TreeTopology
    distribution: Distribution
    protocol: str | None = None
    seed: int = 0
    placement: str = "custom"
    verify: bool = True
    opts: dict = field(default_factory=dict)

    def execute(self) -> RunReport:
        return run(
            self.task,
            self.tree,
            self.distribution,
            protocol=self.protocol,
            seed=self.seed,
            placement=self.placement,
            verify=self.verify,
            **self.opts,
        )


def _execute_annotated(indexed: tuple[int, RunPlan]) -> RunReport:
    """Execute one plan; on failure, pin the plan's index and task.

    Pool workers strip the call site from tracebacks, so without this a
    grid of hundreds of plans fails with no hint of *which* cell broke.
    """
    index, plan = indexed
    try:
        return plan.execute()
    except Exception as error:
        annotate_error(error, f"run_many: plan {index} (task {plan.task!r}) failed")
        raise


def run_many(
    plans: Iterable[RunPlan | dict], *, workers: int | None = None
) -> list[RunReport]:
    """Execute plans; reports come back in plan order.

    ``plans`` may mix :class:`RunPlan` instances and plain dicts with the
    same field names.  A failing plan's exception is annotated with
    its index and task name.

    ``workers=None`` (default) runs the plans one after another in the
    caller, under the caller's run context: their spans, metrics and
    audit checks land where the caller's hooks are.  An int ``n >= 1``
    deals them round-robin over the shared pool of ``n`` worker
    processes (:func:`repro.parallel.pool.get_pool`), even one plan or
    ``n = 1``: plan ``i`` runs on rank ``i % n`` under the default run
    context, so its spans, metrics and audit checks stay there, and the
    caller's trace gets one ``pool.scatter`` span (category
    ``barrier``) for the wait.  Plans and reports cross the process
    boundary by pickling, so the pool requires picklable plan fields
    (every in-repo topology/distribution is); the first failing plan's
    exception is raised with its worker rank noted.  Either way a
    report's cost is its plan's Section-2 ledger: the two paths return
    the same reports apart from ``wall_time_s``.
    """
    if workers is not None and workers < 1:
        raise AnalysisError(f"workers must be >= 1, got {workers}")
    normalized: list[RunPlan] = [
        plan if isinstance(plan, RunPlan) else RunPlan(**plan)
        for plan in plans
    ]
    if workers is None:
        return [
            _execute_annotated(indexed) for indexed in enumerate(normalized)
        ]
    if not normalized:
        return []
    # imported here: ``import repro`` should not load multiprocessing
    from repro.parallel.pool import get_pool

    pool = get_pool(workers)
    with current().tracer.span(
        "pool.scatter", category="barrier", workers=pool.num_workers
    ):
        return pool.map(_execute_annotated, enumerate(normalized))


def run_plan(
    query,
    tree: TreeTopology,
    catalog: dict,
    *,
    strategy: str = "optimized",
    seed: int = 0,
    verify: bool = True,
    keep_output: bool = False,
    plan_cache=None,
):
    """Compile and execute a logical query plan; report per-stage costs.

    The multi-operator counterpart of :func:`run`: ``query`` is a
    :mod:`repro.plan.logical` tree, ``catalog`` maps base relation
    names to :class:`~repro.plan.relation.PlacedRelation` instances.
    The optimizer picks a join order and a registered protocol per
    stage (``strategy="optimized"``), or builds the gather-everything /
    worst-order baseline plans; the executor then runs the pipeline on
    one cluster, materializing every intermediate as a new
    :class:`~repro.data.distribution.Distribution`.

    ``plan_cache`` — a :class:`repro.plan.optimizer.PlanCache` — lets
    repeated shapes skip optimization entirely; sessions thread their
    cache through here.

    Returns a :class:`~repro.report.PlanReport`; with
    ``keep_output=True``, returns ``(report, output_relation)``.  The
    report's ``wall_time_s`` is what the caller waited for — it runs
    from entry here, optimization included (``execute_plan`` called on
    its own reports its own span).
    """
    # Imported lazily: the plan package builds on this module.
    from repro.plan.executor import execute_plan
    from repro.plan.optimizer import optimize

    started = perf_counter()
    # One-shot artifact scope, mirroring run(): the per-stage clusters
    # the executor builds all share one set of topology artifacts.
    with use(artifacts=_run_artifacts(current())):
        physical = optimize(
            query, tree, catalog, strategy=strategy, cache=plan_cache
        )
        report, output = execute_plan(
            physical,
            tree,
            catalog,
            seed=seed,
            verify=verify,
            keep_output=True,
        )
    report = replace(report, wall_time_s=perf_counter() - started)
    return (report, output) if keep_output else report
