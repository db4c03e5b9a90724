"""Metrics: closed spans folded into labeled counters and histograms.

Tracing (:mod:`repro.obs.tracer`) answers "where did *this run's* time
go"; the registry answers the standing question a serving engine must
keep answering: how many runs, rounds, elements, bytes, cache hits,
verify failures — by task, protocol, tag — since the process started,
and how are per-round costs distributed?  The registry has no
instruments of its own.  It subscribes to the span stream: the tracer
hands it every closed :class:`~repro.obs.tracer.SpanEvent` under the
tracer's lock, and :meth:`MetricsRegistry.fold` applies the
declarative table :data:`FOLDS`.  Each row names a span (by category
or by name), the attribute it reads and the labels it copies, so a
fact the program wants counted is a span attribute and nothing else.

:func:`collecting` installs a fresh registry for a block (and a
:class:`~repro.obs.tracer.FoldingTracer` when no recording tracer is
installed, so spans close somewhere); ``tracing()`` and
``collecting()`` nest in either order with the same counts.
:meth:`~MetricsRegistry.snapshot` emits a strictly JSON-serializable
state dict, and :func:`prometheus_text` renders the Prometheus text
exposition format.

Histograms come in two bucket schemes:

* ``"log2"`` — power-of-two buckets created on demand (element counts,
  round costs, edge loads: sizes spanning many orders of magnitude);
* an explicit tuple of upper bounds (latencies: a fixed ladder keeps
  cross-run bucket layouts comparable).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.context import current, use
from repro.obs.tracer import FoldingTracer

#: Fixed latency ladder (seconds) for wall-time histograms: 100us to
#: ~2 minutes, roughly x4 per step.  A fixed ladder (not log2-on-demand)
#: keeps latency bucket layouts identical across runs and machines.
LATENCY_BUCKETS = (
    0.0001,
    0.0005,
    0.002,
    0.01,
    0.05,
    0.25,
    1.0,
    5.0,
    25.0,
    120.0,
)

#: Fixed ratio ladder for estimated-vs-actual cost ratios (a ratio of
#: 1.0 means the planner's estimate was exact).
RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 10.0)


@dataclass(frozen=True)
class Fold:
    """One row of the fold: which closed spans feed ``family``, and how.

    ``span`` is matched against the span's category and its name.  A
    row with an ``attr`` skips spans that lack it; the attribute's
    value is what a counter adds (a dict adds one series per key,
    labelled ``per_key``) or a histogram observes, and ``count`` adds
    1 instead.  A row without ``attr`` counts every matching span.
    ``labels`` are ``(label, attribute)`` pairs; ``status`` is
    ``(label, value without error, value with error)``, read from the
    ``error`` attribute a span gets when an exception closes it.
    ``buckets`` makes the family a histogram.  A counter never adds 0,
    so a zero creates no series.
    """

    family: str
    span: str
    attr: str | None = None
    count: bool = False
    labels: tuple = ()
    per_key: str | None = None
    status: tuple | None = None
    buckets: str | tuple | None = None


_TASK = (("task", "task"),)
_STEP = (("task", "task"), ("phase", "step"))
_KIND = (("kind", "kind"),)
_STRATEGY = (("strategy", "strategy"),)

#: The whole mapping from the span stream to metric families.
FOLDS = (
    # engine.run: one per task execution, error or not
    Fold("repro_runs_total", "engine",
         labels=(("task", "task"), ("protocol", "protocol")),
         status=("status", "ok", "error")),
    Fold("repro_run_seconds", "engine", "wall_time_s", labels=_TASK,
         buckets=LATENCY_BUCKETS),
    Fold("repro_verify_total", "verify", labels=_TASK,
         status=("outcome", "pass", "fail")),
    Fold("repro_verify_total", "engine", "verify", count=True,
         labels=(("task", "task"), ("outcome", "verify"))),
    # rounds: the attributes the finalizer annotates after close_round
    Fold("repro_rounds_total", "round", "round_cost", count=True),
    Fold("repro_round_cost", "round", "round_cost", buckets="log2"),
    Fold("repro_max_edge_load", "round", "max_edge_load", buckets="log2"),
    Fold("repro_round_elements_total", "round", "elements_by_tag",
         per_key="tag"),
    Fold("repro_round_bytes_total", "round", "bytes_by_tag", per_key="tag"),
    Fold("repro_delivered_elements_total", "round", "delivered_by_tag",
         per_key="tag"),
    # graph supersteps and plan stages: set when the step completes
    Fold("repro_supersteps_total", "superstep", "elements", count=True,
         labels=_STEP),
    Fold("repro_superstep_elements_total", "superstep", "elements",
         labels=_STEP),
    Fold("repro_plan_stages_total", "stage", "cost", count=True,
         labels=_KIND),
    Fold("repro_stage_cost_ratio", "stage", "cost_ratio", labels=_KIND,
         buckets=RATIO_BUCKETS),
    # caches, storage and the auditor: small spans of their own
    Fold("repro_plan_cache_hits_total", "plan_cache.lookup", "hits",
         labels=_STRATEGY),
    Fold("repro_plan_cache_misses_total", "plan_cache.lookup", "misses",
         labels=_STRATEGY),
    Fold("repro_artifact_cache_hits_total", "artifact_cache.get", "hits"),
    Fold("repro_artifact_cache_misses_total", "artifact_cache.get", "misses"),
    Fold("repro_storage_compactions_total", "storage", "columns",
         labels=(("tag", "tag"),)),
    Fold("repro_bound_beats_total", "audit", "bound_beats", labels=_TASK),
    Fold("repro_audit_violations_total", "audit", "violations",
         labels=(("invariant", "invariant"),)),
)

#: ``FOLDS`` by the category or name they match, in table order.
_FOLDS_BY_SPAN = {
    span: tuple(row for row in FOLDS if row.span == span)
    for span in dict.fromkeys(row.span for row in FOLDS)
}


def _label_key(labels: dict) -> str:
    """Deterministic flat encoding of a label set (sorted ``k=v`` pairs
    joined by ``|``).

    Label values in this codebase are task/protocol/tag/strategy names;
    the encoding is documented as not supporting ``|`` or ``=`` inside
    values (they would split ambiguously on parse).
    """
    return "|".join(f"{k}={labels[k]}" for k in sorted(labels))


def parse_label_key(key: str) -> dict:
    """Invert :func:`_label_key` (empty string -> no labels)."""
    if not key:
        return {}
    labels = {}
    for part in key.split("|"):
        name, _, value = part.partition("=")
        labels[name] = value
    return labels


class Histogram:
    """Bucketed observations: log2-on-demand or a fixed bound ladder.

    ``scheme="log2"`` stores one integer count per power-of-two upper
    bound, created lazily — ``observe(v)`` lands in the smallest bucket
    ``2**k >= v`` (``v <= 0`` lands in bucket ``0``).  A tuple of
    ascending bounds gives fixed buckets with a ``+Inf`` overflow
    bucket, Prometheus-style.
    """

    __slots__ = ("scheme", "counts", "total", "count")

    def __init__(self, scheme) -> None:
        self.scheme = scheme
        self.counts: dict[float, int] = {}
        self.total = 0.0
        self.count = 0

    def _bucket_of(self, value: float) -> float:
        if self.scheme == "log2":
            if value <= 0:
                return 0.0
            return float(2 ** math.ceil(math.log2(value))) if value > 1 else 1.0
        for bound in self.scheme:
            if value <= bound:
                return bound
        return math.inf

    def observe(self, value: float) -> None:
        bucket = self._bucket_of(value)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Counter and histogram families folded from closed spans.

    The tracer calls :meth:`fold` under its lock, so the families need
    no lock of their own; :meth:`snapshot` copies each family in one
    step.
    """

    def __init__(self) -> None:
        self._counters: dict[str, dict[str, int | float]] = {}
        self._histograms: dict[str, dict[str, Histogram]] = {}

    def fold(self, event) -> None:
        """Apply every :data:`FOLDS` row that matches ``event``."""
        attrs = event.attrs
        category = attrs.get("category")
        rows = _FOLDS_BY_SPAN.get(category, ())
        if event.name != category:
            rows += _FOLDS_BY_SPAN.get(event.name, ())
        for row in rows:
            if row.attr is None:
                value = 1
            else:
                value = attrs.get(row.attr)
                if value is None:
                    continue
                if row.count:
                    value = 1
            labels = {label: attrs.get(attr) for label, attr in row.labels}
            if row.status is not None:
                label, ok, error = row.status
                labels[label] = error if "error" in attrs else ok
            if row.per_key is None:
                self._add(row, labels, value)
            else:
                for key, amount in value.items():
                    self._add(row, {**labels, row.per_key: key}, amount)

    def _add(self, row: Fold, labels: dict, value) -> None:
        key = _label_key(labels)
        if row.buckets is None:
            if value:
                family = self._counters.setdefault(row.family, {})
                family[key] = family.get(key, 0) + value
            return
        family = self._histograms.setdefault(row.family, {})
        histogram = family.get(key)
        if histogram is None:
            histogram = family[key] = Histogram(row.buckets)
        histogram.observe(value)

    def snapshot(self) -> dict:
        """The registry's full state as JSON-serializable builtins.

        ``repro metrics --output`` writes it to disk, and
        :func:`prometheus_text` renders it.  Histogram bucket bounds
        are stringified floats (``"inf"`` for the overflow bucket) so
        the payload survives ``json.dumps(..., allow_nan=False)``.
        """
        counters = {
            name: dict(family) for name, family in list(self._counters.items())
        }
        histograms = {
            name: {
                key: {
                    "scheme": "log2" if h.scheme == "log2" else list(h.scheme),
                    "buckets": {
                        str(bound): count
                        for bound, count in sorted(h.counts.items())
                    },
                    "sum": h.total,
                    "count": h.count,
                }
                for key, h in list(family.items())
            }
            for name, family in list(self._histograms.items())
        }
        return {"counters": counters, "histograms": histograms}


# ---------------------------------------------------------------------- #
# exposition
# ---------------------------------------------------------------------- #


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_labels(key: str, extra: dict | None = None) -> str:
    labels = parse_label_key(key)
    if extra:
        labels = {**labels, **extra}
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return "{" + inner + "}"


def prometheus_text(source) -> str:
    """Render a registry (or a snapshot dict) as Prometheus text format.

    Histograms emit cumulative ``_bucket`` series with ``le`` labels
    plus ``_sum``/``_count``, per the exposition-format spec; an
    explicit ``+Inf`` bucket always closes the ladder.
    """
    snap = source if isinstance(source, dict) else source.snapshot()
    lines: list[str] = []
    for name in sorted(snap.get("counters", {})):
        lines.append(f"# TYPE {name} counter")
        for key, value in sorted(snap["counters"][name].items()):
            lines.append(f"{name}{_prom_labels(key)} {_format_value(value)}")
    for name in sorted(snap.get("histograms", {})):
        lines.append(f"# TYPE {name} histogram")
        for key, state in sorted(snap["histograms"][name].items()):
            cumulative = 0
            bounds = sorted(
                (float(b), count) for b, count in state["buckets"].items()
            )
            for bound, count in bounds:
                if math.isinf(bound):
                    continue
                cumulative += count
                le = _prom_labels(key, {"le": _format_value(bound)})
                lines.append(f"{name}_bucket{le} {cumulative}")
            le = _prom_labels(key, {"le": "+Inf"})
            lines.append(f"{name}_bucket{le} {state['count']}")
            lines.append(
                f"{name}_sum{_prom_labels(key)} "
                f"{_format_value(float(state['sum']))}"
            )
            lines.append(f"{name}_count{_prom_labels(key)} {state['count']}")
    return "\n".join(lines) + "\n"


def write_snapshot(path, source) -> dict:
    """Write a registry's JSON snapshot to ``path``; returns the payload."""
    payload = source if isinstance(source, dict) else source.snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return payload


@contextmanager
def collecting() -> Iterator[MetricsRegistry]:
    """Fold every span closed within the block into a new registry;
    yields the registry.

    The registry counts closed spans, so without a recording tracer in
    the current context a :class:`~repro.obs.tracer.FoldingTracer`
    (which keeps no events) is installed for the block too.
    """
    registry = MetricsRegistry()
    tracer = current().tracer
    if not tracer.enabled:
        tracer = FoldingTracer()
    with use(registry=registry, tracer=tracer):
        yield registry
