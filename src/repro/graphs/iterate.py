"""The iterative superstep driver for multi-round graph protocols.

The paper's protocols are one-shot; the dominant related work (Andoni
et al., Behnezhad et al.) solves graph problems by *iterating*
shuffle/aggregate supersteps.  :class:`SuperstepDriver` is the bridge:
it runs a workload as a sequence of steps on one master
:class:`~repro.sim.cluster.Cluster`, where each step is either

* a **protocol step** — a registered protocol dispatched through the
  engine (``groupby-aggregate`` with ``op="min"`` is one hash-to-min
  round); the inner run's per-round :class:`~repro.sim.ledger.CostLedger`
  is replayed into the master ledger round by round, so the driver's
  total cost is exactly the sum of the composed protocols' costs under
  the Section 2 accounting; or
* a **cluster round** — communication the driver performs directly on
  its own cluster (e.g. pushing updated labels back to the nodes that
  subscribe to them), charged through the same ledger.

Every step also contributes one :class:`~repro.report.RunReport` row,
and :meth:`SuperstepDriver.report` packages the rows into a
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
from repro.sim.protocol import ProtocolResult
from repro.topology.tree import TreeTopology


class SuperstepDriver:
    """Compose registered protocols and raw rounds on one master ledger."""

    def __init__(
        self, tree: TreeTopology, *, bits_per_element: int = 64
    ) -> None:
        self._tree = tree
        self._cluster = Cluster(tree, bits_per_element=bits_per_element)
        self._steps: list[RunReport] = []

    @property
    def tree(self) -> TreeTopology:
        return self._tree

    @property
    def cluster(self) -> Cluster:
        """The driver's cluster: storage for return legs, master ledger."""
        return self._cluster

    @property
    def ledger(self) -> CostLedger:
        """The master ledger accumulating every step's rounds."""
        return self._cluster.ledger

    @property
    def steps(self) -> list[RunReport]:
        """One report row per communication step, in execution order."""
        return list(self._steps)

    @property
    def total_cost(self) -> float:
        return self.ledger.total_cost()

    @property
    def num_rounds(self) -> int:
        return self.ledger.num_rounds

    # ------------------------------------------------------------------ #
    # steps
    # ------------------------------------------------------------------ #

    def protocol_step(
        self,
        task: str,
        distribution,
        *,
        label: str,
        protocol: str | None = None,
        seed: int = 0,
        verify: bool = True,
        **opts,
    ) -> ProtocolResult:
        """Run one registered protocol as a superstep; absorb its ledger.

        The call goes through :func:`repro.engine.run_with_result`, so
        the step is verified and bounded exactly like a standalone run;
        ``label`` lands in the step report's ``placement`` column.
        """
        # Imported lazily: the engine imports the graph task modules,
        # which build on this driver.
        from repro.engine import run_with_result

        with get_tracer().span(
            label, category="superstep", task=task, step="protocol"
        ) as span:
            report, result = run_with_result(
                task,
                self._tree,
                distribution,
                protocol=protocol,
                seed=seed,
                placement=label,
                verify=verify,
                **opts,
            )
            self._absorb(result.ledger)
            span.set(elements=distribution.total())
        self._steps.append(report)
        return result

    @contextmanager
    def cluster_round(
        self,
        *,
        task: str,
        protocol: str,
        label: str,
        input_size: int = 0,
    ) -> Iterator[RoundContext]:
        """Open one driver-level communication round on the master cluster.

        Sends registered inside the block are routed, delivered and
        charged by the shared cluster; on exit the round becomes one
        zero-bound :class:`RunReport` row labelled ``label``, and
        ``input_size`` (the elements the round ships) is both the row's
        input size and the ``elements`` attribute of its span.
        """
        started = perf_counter()
        with get_tracer().span(
            label, category="superstep", task=task, step="cluster-round"
        ) as span:
            with self._cluster.round() as ctx:
                yield ctx
            span.set(elements=input_size)
        index = self.ledger.num_rounds - 1
        self._steps.append(
            RunReport(
                task=task,
                protocol=protocol,
                topology=self._tree.name,
                placement=label,
                input_size=input_size,
                rounds=1,
                cost=self.ledger.round_cost(index),
                lower_bound=0.0,
                meta={"driver_round": index},
                wall_time_s=perf_counter() - started,
            )
        )

    def _absorb(self, ledger: CostLedger) -> None:
        """Replay an inner protocol's per-round loads into the master.

        Round boundaries are preserved, so the master's round costs (and
        hence the total) match the inner run's exactly.
        """
        for index in range(ledger.num_rounds):
            self.ledger.open_round()
            self.ledger.add_link_loads(ledger.link_loads(index))
            self.ledger.close_round()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def report(
        self,
        *,
        task: str,
        protocol: str,
        placement: str = "custom",
        num_vertices: int,
        num_edges: int,
        lower_bound: float = 0.0,
        converged: bool = True,
        meta: dict | None = None,
        wall_time_s: float | None = None,
    ) -> GraphRunReport:
        """Package the accumulated step rows as a :class:`GraphRunReport`.

        ``wall_time_s`` defaults to the sum of the step rows' measured
        times (when every step carries one); pass an explicit
        end-to-end measurement to include driver-side compute between
        steps.
        """
        if wall_time_s is None and self._steps:
            step_times = [step.wall_time_s for step in self._steps]
            if all(t is not None for t in step_times):
                wall_time_s = sum(step_times)
        return GraphRunReport(
            task=task,
            protocol=protocol,
            topology=self._tree.name,
            placement=placement,
            num_vertices=num_vertices,
            num_edges=num_edges,
            supersteps=tuple(self._steps),
            lower_bound=lower_bound,
            converged=converged,
            meta=meta or {},
            wall_time_s=wall_time_s,
        )


def _run_graph_task(
    task: str,
    tree: TreeTopology,
    graph: "PlacedGraph | Distribution",
    *,
    converged: bool | None = None,
    protocol: str | None = None,
    seed: int = 0,
    placement: str = "custom",
    verify: bool = True,
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
        verify=verify,
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
