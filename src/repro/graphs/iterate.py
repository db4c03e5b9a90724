"""The iterative superstep driver for multi-round graph protocols.

The paper's protocols are one-shot; the dominant related work (Andoni
et al., Behnezhad et al.) solves graph problems by *iterating*
shuffle/aggregate supersteps.  :class:`SuperstepDriver` is the bridge:
it runs a workload as a sequence of steps on one
:class:`~repro.sim.cluster.Cluster`, whose ledger is the run's ledger.
A step is any rounds the caller runs on that cluster inside
:meth:`SuperstepDriver.step` — a hash-to-min shuffle is one
:func:`~repro.queries.aggregate.shuffle_round` along the run's layout — or one round
opened by :meth:`SuperstepDriver.cluster_round` (e.g. pushing updated
labels back to the nodes that subscribe to them).  Every round is
charged once, where it runs, so the driver's total cost is exactly the
sum of its rounds' costs under the Section 2 accounting.

Every step also contributes one :class:`~repro.report.RunReport` row;
a protocol records the rows in its result's ``meta``, and the graph
facades (:func:`_run_graph_task`) unpack them into a
:class:`~repro.report.GraphRunReport` with per-superstep visibility.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from repro.data.distribution import Distribution
from repro.graphs.model import PlacedGraph
from repro.obs.tracer import get_tracer
from repro.report import GraphRunReport, RunReport
from repro.sim.cluster import Cluster, RoundContext
from repro.sim.ledger import CostLedger
from repro.topology.tree import TreeTopology


class SuperstepDriver:
    """Run a workload's rounds on one cluster, one report row per step."""

    def __init__(self, tree: TreeTopology) -> None:
        self._tree = tree
        self._cluster = Cluster(tree)
        self._steps: list[RunReport] = []

    @property
    def cluster(self) -> Cluster:
        """The driver's cluster: every step's storage and rounds."""
        return self._cluster

    @property
    def ledger(self) -> CostLedger:
        """The ledger accumulating every step's rounds."""
        return self._cluster.ledger

    @property
    def steps(self) -> list[RunReport]:
        """One report row per communication step, in execution order."""
        return list(self._steps)

    # ------------------------------------------------------------------ #
    # steps
    # ------------------------------------------------------------------ #

    @contextmanager
    def step(
        self,
        *,
        task: str,
        protocol: str,
        label: str,
        phase: str,
        input_size: int,
        lower_bound: float = 0.0,
        meta: dict | None = None,
    ) -> Iterator[None]:
        """Record the rounds run on :attr:`cluster` inside the block as
        one step.

        On exit the step becomes one :class:`RunReport` row labelled
        ``label`` (its ``placement`` column): its rounds and cost are
        those the block added to the ledger, ``lower_bound`` and
        ``meta`` are the caller's.  The block runs in a ``superstep``
        span whose ``step`` attribute is ``phase`` and whose
        ``elements`` attribute is ``input_size``, the elements the step
        ships.
        """
        started = perf_counter()
        first = self.ledger.num_rounds
        with get_tracer().span(
            label, category="superstep", task=task, step=phase
        ) as span:
            yield
            span.set(elements=input_size)
        rounds = range(first, self.ledger.num_rounds)
        self._steps.append(
            RunReport(
                task=task,
                protocol=protocol,
                topology=self._tree.name,
                placement=label,
                input_size=input_size,
                rounds=len(rounds),
                cost=sum(map(self.ledger.round_cost, rounds)),
                lower_bound=lower_bound,
                meta=meta or {},
                wall_time_s=perf_counter() - started,
            )
        )

    @contextmanager
    def cluster_round(
        self,
        *,
        task: str,
        protocol: str,
        label: str,
        input_size: int = 0,
    ) -> Iterator[RoundContext]:
        """One round on the driver's cluster, recorded as a zero-bound
        :meth:`step` (phase ``cluster-round``).

        Sends registered inside the block are routed, delivered and
        charged by the shared cluster; the row's ``meta`` names the
        round's index in the ledger.
        """
        with self.step(
            task=task,
            protocol=protocol,
            label=label,
            phase="cluster-round",
            input_size=input_size,
            meta={"driver_round": self.ledger.num_rounds},
        ):
            with self._cluster.round() as ctx:
                yield ctx


def _run_graph_task(
    task: str,
    tree: TreeTopology,
    graph: "PlacedGraph | Distribution",
    *,
    converged: bool | None = None,
    protocol: str | None = None,
    seed: int = 0,
    placement: str = "custom",
    **opts,
) -> GraphRunReport:
    """Run a graph task through the engine and report per superstep.

    The body of the graph facades: ``graph`` is a
    :class:`~repro.graphs.model.PlacedGraph` or its distribution, and
    the flat engine report is expanded back into the superstep rows the
    protocol records in its ``meta``.  ``converged`` is read from that
    ``meta`` unless the caller fixes it (a one-shot task always is).
    """
    from repro.engine import run_with_result

    distribution = (
        graph.distribution if isinstance(graph, PlacedGraph) else graph
    )
    report, result = run_with_result(
        task,
        tree,
        distribution,
        protocol=protocol,
        seed=seed,
        placement=placement,
        **opts,
    )
    meta = dict(result.meta)
    steps = tuple(
        RunReport.from_dict(payload) for payload in meta.pop("supersteps", [])
    )
    if converged is None:
        converged = bool(meta.get("converged", False))
    return GraphRunReport(
        task=report.task,
        protocol=report.protocol,
        topology=report.topology,
        placement=placement,
        num_vertices=int(meta.get("num_vertices", 0)),
        num_edges=int(meta.get("num_edges", 0)),
        supersteps=steps,
        lower_bound=report.lower_bound,
        converged=converged,
        meta=meta,
        wall_time_s=report.wall_time_s,
    )
