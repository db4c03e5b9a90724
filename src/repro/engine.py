"""The execution engine: one ``run()`` for every task and protocol.

The engine looks the task and protocol up in :mod:`repro.registry`,
routes keyword arguments by the protocol's declared capabilities (the
seed only goes to protocols that accept one), verifies the answer with
the task's
verifier (the reproduction never reports cost for a wrong answer),
computes the task's lower bound, and packages everything into a
:class:`repro.report.RunReport`.

A verifier's expected answer and the bound read only the input, so on
an input of at least :data:`AHEAD_MIN_ELEMENTS` elements, in a process
that may use more than one CPU, one job computes both on the engine's
side thread (one persistent thread, under the caller's run context)
while the protocol runs in the caller; the caller then joins it,
checks the answer and reports.  Smaller inputs compute both after the
protocol, in the caller.  Only NumPy that releases the GIL overlaps,
so the report is the same either way and only wall time changes.

Batch execution goes through :func:`run_many`, which returns reports
in plan order.  A batch runs in the caller, plan after plan under the
caller's run context, or whole plans are dealt over the shared worker
pool (:func:`repro.parallel.pool.get_pool`, one ``ProcessPoolExecutor``
per rank); queries run in parallel only there, and inside one query
only its verification and bound beside its protocol.  Every report's
cost is its Section-2 ledger, so the path changes only wall time.
``run(..., backend="process")`` is the pool with one plan, so it runs
on rank 0.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Iterable

import numpy as np

from repro.context import RunContext, current, use
from repro.report import RunReport
from repro.core.cartesian.lower_bounds import cartesian_lower_bound
from repro.core.intersection.lower_bound import intersection_lower_bound
from repro.core.sorting.lower_bound import sorting_lower_bound
from repro.core.sorting.ordering import check_sorted_output
from repro.data.distribution import Distribution
from repro.errors import AnalysisError, ProtocolError, annotate_error
from repro.queries.aggregate import GroupOutputs, groupby_lower_bound
from repro.queries.join import JoinOutputs, equijoin_lower_bound
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS
from repro.registry import (
    BACKENDS,
    TaskSpec,
    get_protocol,
    get_task,
    register_task,
)
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
    stray = set(result.outputs).difference(tree.compute_nodes)
    if stray:
        node = next(node for node in result.outputs if node in stray)
        raise ProtocolError(
            f"{result.protocol} left output at {node!r}, which is not a "
            "compute node"
        )


def _shared_keys(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keys present in both int64 arrays ``a`` and ``b``, ascending,
    and how often each occurs in ``a`` and in ``b``.

    One sort: every value becomes the word ``(v - lo) << 1 | side`` (side
    0 for ``a``, 1 for ``b``), so after a plain ``np.sort`` a key ``h`` is
    shared exactly when a word ``2h`` is directly followed by ``2h + 1``,
    and the lengths of the two runs are its counts.  A span wider than
    62 bits leaves no room for the side bit and takes ``np.unique`` and
    ``np.intersect1d`` instead.  Deliberately its own few lines of NumPy:
    a verifier that called the protocol kernels would pass their bugs.
    """
    if not (a.size and b.size):
        empty = np.empty(0, np.intp)
        return np.empty(0, np.int64), empty, empty
    words = np.concatenate((a, b))
    lo, hi = int(words.min()), int(words.max())
    if (hi - lo).bit_length() > 62:
        a_keys, a_counts = np.unique(a, return_counts=True)
        b_keys, b_counts = np.unique(b, return_counts=True)
        keys, a_index, b_index = np.intersect1d(
            a_keys, b_keys, assume_unique=True, return_indices=True
        )
        return keys, a_counts[a_index], b_counts[b_index]
    words -= lo
    words <<= 1
    words[a.size :] |= 1
    words.sort()
    # 1 exactly where the last 2h meets the first 2h + 1, 0 inside a run
    step = words[1:] ^ words[:-1]
    if step.all():  # no word repeats: every run is one word long
        last = np.flatnonzero(step == 1)
        ones = np.ones(len(last), np.intp)
        return (words[last] >> 1) + lo, ones, ones
    ends = np.flatnonzero(step)  # the last word of every run but the final one
    run = np.flatnonzero(step[ends] == 1)
    bounds = np.concatenate(([-1], ends, [words.size - 1]))
    keys = (words[ends[run]] >> 1) + lo
    return keys, bounds[run + 1] - bounds[run], bounds[run + 2] - bounds[run + 1]


def _expect_intersection(
    tree: TreeTopology, distribution: Distribution, **opts
) -> np.ndarray:
    """``R ∩ S``, ascending."""
    expected, _, _ = _shared_keys(
        distribution.relation("R"), distribution.relation("S")
    )
    return expected


def _check_intersection(result: ProtocolResult, expected: np.ndarray) -> None:
    """The emitted union must equal ``R ∩ S`` exactly."""
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


def _expect_cartesian(
    tree: TreeTopology, distribution: Distribution, **opts
) -> int:
    """``|R| * |S|`` pairs."""
    return distribution.total("R") * distribution.total("S")


def _check_cartesian(result: ProtocolResult, expected: int) -> None:
    """Every ``(r, s)`` pair must be enumerated exactly once in total."""
    produced = sum(o["num_pairs"] for o in result.outputs.values())
    if produced != expected:
        raise ProtocolError(
            f"{result.protocol} enumerated {produced} of {expected} pairs"
        )


def _expect_sorting(
    tree: TreeTopology, distribution: Distribution, **opts
) -> tuple[TreeTopology, np.ndarray]:
    """``R`` sorted, and the tree whose traversal must hold it."""
    return tree, np.sort(distribution.relation("R"))


def _check_sorting(
    result: ProtocolResult, expected: tuple[TreeTopology, np.ndarray]
) -> None:
    tree, expected_sorted = expected
    check_sorted_output(
        tree, result.outputs, result.meta["order"], expected_sorted
    )


def _expect_equijoin(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    **opts,
) -> int:
    """``sum_k cnt_R(k) * cnt_S(k)`` over the keys above ``payload_bits``."""
    _, r_counts, s_counts = _shared_keys(
        distribution.relation("R") >> payload_bits,
        distribution.relation("S") >> payload_bits,
    )
    return int(np.dot(r_counts, s_counts))


def _check_equijoin(result: ProtocolResult, expected: int) -> None:
    """The join must produce the expected number of pairs."""
    produced = JoinOutputs.of(result.outputs).pair_bounds[-1]
    if produced != expected:
        raise ProtocolError(
            f"{result.protocol} joined {produced} of {expected} pairs"
        )


def _expect_aggregate(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
    **opts,
) -> int:
    """The number of distinct keys above ``payload_bits``."""
    return len(sorted_unique(distribution.relation("R") >> payload_bits))


def _check_aggregate(result: ProtocolResult, expected: int) -> None:
    """Every distinct input key must appear at exactly one node."""
    produced = GroupOutputs.of(result.outputs).bounds[-1]
    if produced != expected:
        raise ProtocolError(
            f"{result.protocol} emitted {produced} of {expected} groups"
        )


register_task(
    "set-intersection",
    default_protocol="tree",
    expect=_expect_intersection,
    check=_check_intersection,
    lower_bound=intersection_lower_bound,
    aliases=("intersection",),
)
register_task(
    "cartesian-product",
    default_protocol="tree",
    expect=_expect_cartesian,
    check=_check_cartesian,
    lower_bound=cartesian_lower_bound,
    aliases=("cartesian",),
)
register_task(
    "sorting",
    default_protocol="wts",
    expect=_expect_sorting,
    check=_check_sorting,
    lower_bound=sorting_lower_bound,
    aliases=("sort",),
)
register_task(
    "equijoin",
    default_protocol="tree",
    expect=_expect_equijoin,
    check=_check_equijoin,
    lower_bound=equijoin_lower_bound,
    aliases=("join",),
)
register_task(
    "groupby-aggregate",
    default_protocol="tree",
    expect=_expect_aggregate,
    check=_check_aggregate,
    lower_bound=groupby_lower_bound,
    lower_bound_opts=("payload_bits",),
    aliases=("aggregate", "groupby"),
)


def _run_artifacts(context: RunContext) -> ArtifactCache:
    """The context's artifact cache, or a one-shot cache for one run."""
    return ArtifactCache() if context.artifacts is None else context.artifacts


#: Inputs of at least this many elements compute their expected answer
#: and bound on the side thread while the protocol runs; below it the
#: thread hand-off costs more than the overlap saves (DESIGN.md,
#: "Execution architecture", has the measured crossover).
AHEAD_MIN_ELEMENTS = 16384


try:  # the CPUs this process may run on
    _USABLE_CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _USABLE_CPUS = os.cpu_count() or 1

_side: ThreadPoolExecutor | None = None
_side_lock = threading.Lock()


def _side_executor() -> ThreadPoolExecutor:
    """The one side thread, built on first use and kept for the process."""
    global _side
    if _side is None:
        with _side_lock:
            if _side is None:
                _side = ThreadPoolExecutor(1, thread_name_prefix="engine.ahead")
    return _side


def _forget_side() -> None:
    """In a forked child, where the parent's side thread does not run:
    the next large run builds the child's own."""
    global _side, _side_lock
    _side = None
    _side_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # wherever a process can fork
    os.register_at_fork(after_in_child=_forget_side)


def _ahead(
    context: RunContext,
    task_spec: TaskSpec,
    tree: TreeTopology,
    distribution: Distribution,
    opts: dict,
) -> tuple:
    """The input-only half of a run, on the side thread: the verifier's
    expected answer, and the bound or the exception computing it raised
    (the caller raises it where it would have raised it itself)."""
    with use(context), context.tracer.span(
        f"engine.ahead {task_spec.name}", category="ahead", task=task_spec.name
    ) as span:
        started = perf_counter()
        try:
            expected = task_spec.expect(tree, distribution, **opts)
            try:
                bound = task_spec.bound(tree, distribution, opts)
            except Exception as error:
                bound = error
        finally:
            span.set(wall_time_s=perf_counter() - started)
    return expected, bound


def _start_ahead(
    context: RunContext,
    task_spec: TaskSpec,
    tree: TreeTopology,
    distribution: Distribution,
    opts: dict,
) -> Future | None:
    """:func:`_ahead` submitted to the side thread, or ``None`` where
    the caller computes both halves itself after the protocol."""
    if _USABLE_CPUS < 2 or distribution.total() < AHEAD_MIN_ELEMENTS:
        return None
    try:
        return _side_executor().submit(
            _ahead, context, task_spec, tree, distribution, opts
        )
    except RuntimeError:  # the interpreter is shutting its threads down
        return None


def run(
    task: str,
    tree: TreeTopology,
    distribution: Distribution,
    *,
    protocol: str | None = None,
    seed: int = 0,
    placement: str = "custom",
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
            task, tree, distribution, protocol, seed, placement, opts
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
        ahead = _start_ahead(context, task_spec, tree, distribution, opts)
        try:
            # A one-shot artifact scope: clusters the protocol builds
            # share topology artifacts within this run; inside an
            # EngineSession the session's long-lived cache is reused
            # instead — run() is a thin one-shot session.
            with use(artifacts=_run_artifacts(context)):
                result = spec.call(tree, distribution, seed=seed, **opts)
            with tracer.span(
                "engine.verify", category="verify", task=task_spec.name
            ):
                _verify_output_nodes(tree, result)
                if ahead is None:
                    expected = task_spec.expect(tree, distribution, **opts)
                else:
                    expected, bound = ahead.result()
                task_spec.check(result, expected)
            with tracer.span("engine.bound", category="bound"):
                if ahead is None:
                    bound = task_spec.bound(tree, distribution, opts)
                elif isinstance(bound, Exception):
                    raise bound
        finally:
            if ahead is not None:
                # no job outlives its run; after a failure above, the
                # job's own exception (if any) is read here and dropped
                ahead.exception()
        # what the caller waited for: protocol, verify and bound
        wall_time_s = perf_counter() - started
        root.set(
            cost=result.cost, rounds=result.rounds, wall_time_s=wall_time_s
        )
    auditor = context.auditor
    if auditor.enabled:
        auditor.check_bound(
            cost=result.cost,
            bound=bound.value,
            task=task_spec.name,
            protocol=result.protocol,
            per_instance=task_spec.bound_holds_per_instance,
        )
    meta = {"result": result.meta, "bound": bound.description}
    report = RunReport(
        task=task_spec.name,
        protocol=result.protocol,
        topology=tree.name,
        placement=placement,
        input_size=distribution.total(),
        rounds=result.rounds,
        cost=result.cost,
        lower_bound=bound.value,
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
    opts: dict = field(default_factory=dict)

    def execute(self) -> RunReport:
        return run(
            self.task,
            self.tree,
            self.distribution,
            protocol=self.protocol,
            seed=self.seed,
            placement=self.placement,
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
            keep_output=True,
        )
    report = replace(report, wall_time_s=perf_counter() - started)
    return (report, output) if keep_output else report
