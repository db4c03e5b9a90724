"""A labeled Counter/Gauge/Histogram registry for long-lived engines.

Tracing (:mod:`repro.obs.tracer`) answers "where did *this run's* time
go"; the registry answers the standing question a serving engine must
keep answering: how many runs, rounds, elements, bytes, verify failures
— by task, protocol, backend, tag — since the process started, and how
are per-round costs distributed?  The design mirrors the tracer's
exactly:

* :class:`MetricsRegistry` — the recording registry
  :func:`collecting` installs.  ``counter(name, **labels)`` /
  ``gauge(...)`` / ``histogram(...)`` return live instruments
  (created on first touch, cached per label set, updated under one
  registry lock so ``run_many`` threads can share a registry);
  :meth:`~MetricsRegistry.snapshot` emits a strictly
  JSON-serializable state dict, and :func:`prometheus_text` renders
  the Prometheus text exposition format.
* :class:`NullRegistry` — the default.  Every instrument call returns
  one shared no-op instrument; instrumented code gates any label-dict
  construction on ``registry.enabled``, so the disabled path costs one
  run-context read per round, exactly like the
  :class:`~repro.obs.tracer.NullTracer` hook.

Histograms come in two bucket schemes:

* ``"log2"`` — power-of-two buckets created on demand (element counts,
  round costs, edge loads: sizes spanning many orders of magnitude);
* an explicit tuple of upper bounds (latencies: a fixed ladder keeps
  cross-run bucket layouts comparable).
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.context import current, use
from repro.errors import AnalysisError

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

#: Counter families recorded by the session/serving caches (created on
#: first touch like every instrument; listed here as the documented
#: contract the serve CLI and dashboards key on).  The artifact pair is
#: incremented by :meth:`repro.topology.artifacts.ArtifactCache.get`;
#: the plan triple by :class:`repro.plan.optimizer.PlanCache` (hits and
#: misses labeled by ``strategy``; ``rejected`` counts plans the
#: lower-bound admission gate kept out of the cache).
ARTIFACT_CACHE_COUNTERS = (
    "repro_artifact_cache_hits_total",
    "repro_artifact_cache_misses_total",
)
PLAN_CACHE_COUNTERS = (
    "repro_plan_cache_hits_total",
    "repro_plan_cache_misses_total",
    "repro_plan_cache_rejected_total",
)


def _label_key(labels: dict) -> str:
    """Deterministic flat encoding of a label set (sorted ``k=v`` pairs).

    Label values in this codebase are task/protocol/tag/backend names;
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


class Counter:
    """A monotonically increasing count (runs, rounds, elements...)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise AnalysisError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (pool size, last cost ratio...)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Bucketed observations: log2-on-demand or a fixed bound ladder.

    ``buckets="log2"`` stores one integer count per power-of-two upper
    bound, created lazily — ``observe(v)`` lands in the smallest bucket
    ``2**k >= v`` (``v <= 0`` lands in bucket ``0``).  A tuple of
    ascending bounds gives fixed buckets with a ``+Inf`` overflow
    bucket, Prometheus-style.
    """

    __slots__ = ("_lock", "scheme", "counts", "total", "count")

    def __init__(self, lock: threading.Lock, buckets) -> None:
        self._lock = lock
        self.scheme = self.normalize_scheme(buckets)
        self.counts: dict[float, int] = {}
        self.total = 0.0
        self.count = 0

    @staticmethod
    def normalize_scheme(buckets):
        """Validate a bucket spec: ``"log2"`` or ascending bound tuple."""
        if buckets == "log2":
            return "log2"
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise AnalysisError(
                "histogram buckets must be strictly ascending bounds"
            )
        return bounds

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
        with self._lock:
            self.counts[bucket] = self.counts.get(bucket, 0) + 1
            self.total += value
            self.count += 1


class _NullInstrument:
    """The shared do-nothing counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The default registry: records nothing, allocates nothing."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets="log2", **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def summary(self) -> dict:
        return {}


class MetricsRegistry:
    """Thread-safe labeled instruments plus snapshot export."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[str, Counter]] = {}
        self._gauges: dict[str, dict[str, Gauge]] = {}
        self._histograms: dict[str, dict[str, Histogram]] = {}

    # ------------------------------------------------------------------ #
    # instruments
    # ------------------------------------------------------------------ #

    def counter(self, name: str, **labels) -> Counter:
        key = _label_key(labels)
        family = self._counters.setdefault(name, {})
        instrument = family.get(key)
        if instrument is None:
            with self._lock:
                instrument = family.setdefault(key, Counter(self._lock))
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = _label_key(labels)
        family = self._gauges.setdefault(name, {})
        instrument = family.get(key)
        if instrument is None:
            with self._lock:
                instrument = family.setdefault(key, Gauge(self._lock))
        return instrument

    def histogram(self, name: str, buckets="log2", **labels) -> Histogram:
        key = _label_key(labels)
        family = self._histograms.setdefault(name, {})
        instrument = family.get(key)
        if instrument is None:
            with self._lock:
                instrument = family.setdefault(
                    key, Histogram(self._lock, buckets)
                )
        elif instrument.scheme != Histogram.normalize_scheme(buckets):
            # silently mixing schemes would make the bucket table
            # meaningless; two callers must agree on a family's ladder
            raise AnalysisError(
                f"histogram {name!r} already registered with bucket "
                f"scheme {instrument.scheme!r}"
            )
        return instrument

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """The registry's full state as JSON-serializable builtins.

        ``repro metrics --output`` writes it to disk, and
        :func:`prometheus_text` renders it.  Histogram bucket bounds
        are stringified floats (``"inf"`` for the overflow bucket) so
        the payload survives ``json.dumps(..., allow_nan=False)``.
        """
        with self._lock:
            counters = {
                name: {key: c.value for key, c in family.items()}
                for name, family in self._counters.items()
            }
            gauges = {
                name: {key: g.value for key, g in family.items()}
                for name, family in self._gauges.items()
            }
            histograms = {
                name: {
                    key: {
                        "scheme": (
                            "log2"
                            if h.scheme == "log2"
                            else list(h.scheme)
                        ),
                        "buckets": {
                            str(bound): count
                            for bound, count in sorted(h.counts.items())
                        },
                        "sum": h.total,
                        "count": h.count,
                    }
                    for key, h in family.items()
                }
                for name, family in self._histograms.items()
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def summary(self) -> dict:
        """A compact per-family digest for ``RunReport.meta`` embedding.

        Counters and gauges keep their per-label values; histograms
        collapse to ``{count, sum}`` — enough for report consumers
        without dragging full bucket tables into every report row.
        """
        snap = self.snapshot()
        return {
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": {
                name: {
                    key: {"count": h["count"], "sum": h["sum"]}
                    for key, h in family.items()
                }
                for name, family in snap["histograms"].items()
            },
        }


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
    for name in sorted(snap.get("gauges", {})):
        lines.append(f"# TYPE {name} gauge")
        for key, value in sorted(snap["gauges"][name].items()):
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


def get_registry():
    """The metrics registry of this thread's run context (no-op by
    default)."""
    return current().registry


@contextmanager
def collecting() -> Iterator[MetricsRegistry]:
    """Collect metrics within the block; yields the registry."""
    registry = MetricsRegistry()
    with use(registry=registry):
        yield registry
