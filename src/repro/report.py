"""Run reports: one row per (task, protocol, topology, placement) cell."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.util.text import render_table


def _jsonify(value: Any) -> Any:
    """Coerce a report payload to strictly JSON-serializable builtins.

    Protocol ``meta`` dicts carry numpy scalars/arrays and frozensets;
    anything else unserializable degrades to ``repr`` rather than
    failing the export.  Non-finite floats become ``None``: ``inf`` and
    ``nan`` are not valid RFC 8259 JSON, and ``json.dumps`` would emit
    the non-strict ``Infinity``/``NaN`` tokens many parsers reject —
    every ``to_dict`` payload must survive
    ``json.dumps(..., allow_nan=False)``.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _jsonify(float(value))
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        members = [_jsonify(v) for v in value]
        try:
            return sorted(members)
        except TypeError:
            # mixed-type or otherwise unorderable members: fall back to
            # a deterministic order instead of raising
            return sorted(members, key=lambda m: (type(m).__name__, repr(m)))
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return repr(value)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one protocol execution compared against its lower bound."""

    task: str
    protocol: str
    topology: str
    placement: str
    input_size: int
    rounds: int
    cost: float
    lower_bound: float
    meta: dict = field(default_factory=dict)
    #: Seconds the caller waited: protocol, verify and bound (``None``
    #: when the producer did not time the run — e.g. pre-obs JSON).
    wall_time_s: float | None = None

    @property
    def ratio(self) -> float:
        """``cost / lower_bound`` (the optimality ratio of Table 1)."""
        if self.lower_bound > 0:
            return self.cost / self.lower_bound
        return 0.0 if self.cost == 0 else float("inf")

    def to_dict(self) -> dict:
        """JSON-serializable form; ``from_dict`` round-trips it.

        ``ratio`` is included for downstream consumers even though it is
        derived — as ``None`` when infinite (positive cost over a zero
        bound), since bare ``Infinity`` is not valid RFC 8259 JSON;
        ``meta`` is coerced to builtins (numpy arrays become lists), so
        a report that went through JSON compares equal on every scalar
        field but not necessarily on ``meta``.
        """
        ratio = self.ratio
        return {
            "task": self.task,
            "protocol": self.protocol,
            "topology": self.topology,
            "placement": self.placement,
            "input_size": self.input_size,
            "rounds": self.rounds,
            "cost": self.cost,
            "lower_bound": self.lower_bound,
            "ratio": ratio if math.isfinite(ratio) else None,
            "meta": _jsonify(self.meta),
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output (or parsed JSON).

        ``wall_time_s`` is optional: payloads written before the field
        existed rebuild with ``None``.
        """
        wall_time_s = payload.get("wall_time_s")
        try:
            return cls(
                task=payload["task"],
                protocol=payload["protocol"],
                topology=payload["topology"],
                placement=payload["placement"],
                input_size=int(payload["input_size"]),
                rounds=int(payload["rounds"]),
                cost=float(payload["cost"]),
                lower_bound=float(payload["lower_bound"]),
                meta=payload.get("meta", {}),
                wall_time_s=(
                    None if wall_time_s is None else float(wall_time_s)
                ),
            )
        except KeyError as missing:
            raise AnalysisError(
                f"report payload is missing field {missing}"
            ) from None

    def as_row(self) -> list:
        return [
            self.task,
            self.protocol,
            self.topology,
            self.placement,
            self.input_size,
            self.rounds,
            self.cost,
            self.lower_bound,
            self.ratio,
        ]


REPORT_HEADERS = [
    "task",
    "protocol",
    "topology",
    "placement",
    "N",
    "rounds",
    "cost",
    "lower bound",
    "ratio",
]


@dataclass(frozen=True)
class PlanReport:
    """Outcome of one multi-stage query plan: per-stage reports + totals.

    The planner executes a pipeline of protocol stages; each
    communication stage contributes one :class:`RunReport` (its
    ``placement`` field records the stage label, e.g. ``"stage 2"``)
    and the plan-level totals sum them.  ``estimated_cost`` is the
    optimizer's prediction, kept beside the measured total so
    ``--explain`` output and regression benchmarks can show how well
    the cost model tracks reality.
    """

    query: str
    strategy: str
    topology: str
    stages: tuple
    estimated_cost: float
    output_rows: int
    meta: dict = field(default_factory=dict)
    #: End-to-end plan seconds — from ``run_plan`` entry, optimization
    #: included; ``execute_plan`` alone reports its own span (per-stage
    #: times live on the stage reports).  ``None`` for payloads
    #: predating the field.
    wall_time_s: float | None = None

    @property
    def cost(self) -> float:
        """Measured plan cost: the sum of stage costs (element units)."""
        return sum(stage.cost for stage in self.stages)

    @property
    def rounds(self) -> int:
        return sum(stage.rounds for stage in self.stages)

    @property
    def lower_bound(self) -> float:
        """Sum of per-stage bounds — a bound for *this* pipeline's
        shuffles, not for the query (another plan may do better)."""
        return sum(stage.lower_bound for stage in self.stages)

    @property
    def estimate_ratio(self) -> float:
        """``measured / estimated`` — how well the cost model tracked."""
        if self.estimated_cost > 0:
            return self.cost / self.estimated_cost
        return 0.0 if self.cost == 0 else float("inf")

    def summarize(self) -> str:
        """Per-stage text table plus the plan totals."""
        if not self.stages:
            raise AnalysisError("plan executed no communication stages")
        table = summarize_reports(
            list(self.stages),
            title=(
                f"{self.strategy} plan on {self.topology}: "
                f"cost {self.cost:.1f} (estimated {self.estimated_cost:.1f}, "
                f"{self.rounds} rounds, {self.output_rows} output rows)"
            ),
        )
        return table

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "strategy": self.strategy,
            "topology": self.topology,
            "stages": [stage.to_dict() for stage in self.stages],
            "estimated_cost": self.estimated_cost,
            "output_rows": self.output_rows,
            "cost": self.cost,
            "rounds": self.rounds,
            "lower_bound": self.lower_bound,
            "meta": _jsonify(self.meta),
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanReport":
        wall_time_s = payload.get("wall_time_s")
        try:
            return cls(
                query=payload["query"],
                strategy=payload["strategy"],
                topology=payload["topology"],
                stages=tuple(
                    RunReport.from_dict(stage) for stage in payload["stages"]
                ),
                estimated_cost=float(payload["estimated_cost"]),
                output_rows=int(payload["output_rows"]),
                meta=payload.get("meta", {}),
                wall_time_s=(
                    None if wall_time_s is None else float(wall_time_s)
                ),
            )
        except KeyError as missing:
            raise AnalysisError(
                f"plan report payload is missing field {missing}"
            ) from None


@dataclass(frozen=True)
class GraphRunReport:
    """Outcome of one iterative graph workload: per-superstep rows + totals.

    The graph driver (:mod:`repro.graphs.iterate`) executes a workload
    as a sequence of supersteps — each a registered protocol run (a
    shuffle or aggregate dispatched through the engine) or a
    driver-level return round — and every communication step
    contributes one :class:`RunReport` (its ``placement`` field records
    the step label, e.g. ``"superstep 2 shuffle"``).  The report keeps
    the per-step rows beside the totals so convergence behaviour is
    inspectable round by round, mirroring :class:`PlanReport` for the
    planner.
    """

    task: str
    protocol: str
    topology: str
    placement: str
    num_vertices: int
    num_edges: int
    supersteps: tuple
    lower_bound: float
    converged: bool
    meta: dict = field(default_factory=dict)
    #: End-to-end workload seconds (per-superstep times live on the
    #: step reports); ``None`` for payloads predating the field.
    wall_time_s: float | None = None

    @property
    def cost(self) -> float:
        """Measured workload cost: the sum of step costs (element units)."""
        return sum(step.cost for step in self.supersteps)

    @property
    def rounds(self) -> int:
        return sum(step.rounds for step in self.supersteps)

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def ratio(self) -> float:
        """``cost / lower_bound`` against the task's per-link bound."""
        if self.lower_bound > 0:
            return self.cost / self.lower_bound
        return 0.0 if self.cost == 0 else float("inf")

    def summarize(self) -> str:
        """Per-step text table plus the workload totals."""
        if not self.supersteps:
            raise AnalysisError("graph run executed no communication steps")
        return summarize_reports(
            list(self.supersteps),
            title=(
                f"{self.task} [{self.protocol}] on {self.topology}: "
                f"cost {self.cost:.1f} over {self.num_supersteps} steps "
                f"({self.rounds} rounds, n={self.num_vertices}, "
                f"m={self.num_edges}, "
                f"{'converged' if self.converged else 'NOT converged'})"
            ),
        )

    def to_dict(self) -> dict:
        ratio = self.ratio
        return {
            "task": self.task,
            "protocol": self.protocol,
            "topology": self.topology,
            "placement": self.placement,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "supersteps": [step.to_dict() for step in self.supersteps],
            "lower_bound": self.lower_bound,
            "converged": self.converged,
            "cost": self.cost,
            "rounds": self.rounds,
            # infinite ratios (cost over a zero bound) are not valid JSON
            "ratio": ratio if math.isfinite(ratio) else None,
            "meta": _jsonify(self.meta),
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GraphRunReport":
        wall_time_s = payload.get("wall_time_s")
        try:
            return cls(
                task=payload["task"],
                protocol=payload["protocol"],
                topology=payload["topology"],
                placement=payload["placement"],
                num_vertices=int(payload["num_vertices"]),
                num_edges=int(payload["num_edges"]),
                supersteps=tuple(
                    RunReport.from_dict(step) for step in payload["supersteps"]
                ),
                lower_bound=float(payload["lower_bound"]),
                converged=bool(payload["converged"]),
                meta=payload.get("meta", {}),
                wall_time_s=(
                    None if wall_time_s is None else float(wall_time_s)
                ),
            )
        except KeyError as missing:
            raise AnalysisError(
                f"graph report payload is missing field {missing}"
            ) from None


def summarize_reports(
    reports: Sequence[RunReport], *, title: str | None = None
) -> str:
    """Render reports as a text table, one row per run."""
    if not reports:
        raise AnalysisError("no reports to summarize")
    return render_table(
        REPORT_HEADERS, [r.as_row() for r in reports], title=title
    )


def aggregate(reports: Iterable[RunReport]) -> dict:
    """Max rounds and max/mean ratio per task — the Table 1 claims.

    Ratio statistics cover the finite ratios only; when every ratio in
    a task is infinite (positive cost over zero bounds) the fields are
    ``None``, never ``float("inf")`` — the summary feeds JSON exports
    which must stay strict-RFC 8259 (``json.dumps`` would otherwise
    emit a bare ``Infinity`` token).

    ``wall_s`` sums the measured execution seconds across the task's
    runs; it is ``None`` when no run carried a wall time (reports
    rebuilt from pre-obs JSON payloads).
    """
    by_task: dict[str, list[RunReport]] = {}
    for report in reports:
        by_task.setdefault(report.task, []).append(report)
    summary: dict = {}
    for task, rows in sorted(by_task.items()):
        finite = [r.ratio for r in rows if math.isfinite(r.ratio)]
        walls = [
            r.wall_time_s for r in rows if r.wall_time_s is not None
        ]
        summary[task] = {
            "runs": len(rows),
            "max_rounds": max(r.rounds for r in rows),
            "max_ratio": max(finite) if finite else None,
            "mean_ratio": sum(finite) / len(finite) if finite else None,
            "wall_s": sum(walls) if walls else None,
        }
    return summary
