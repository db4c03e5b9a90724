"""repro.obs — tracing, metrics, and cost-model auditing.

The cost model says what a protocol *should* cost per round; this
package records where wall-clock time and bytes *actually* go as a run
flows engine → plan stages → supersteps → round finalization, keeps
standing counters a long-lived engine can expose, and audits the
Section-2 invariants on every finalized round.  Closing a span is the
only emission: the counters are a fold over closed spans, so every fact
is a span attribute first.  Zero dependencies, zero configuration: the
tracer, registry and auditor are fields of the run context
(:mod:`repro.context`), whose default holds a no-op tracer and
auditor and no registry, so instrumented code pays one context read
when observability is off.

* :mod:`repro.obs.tracer` — nested spans and Chrome-trace export
  (``tracing()`` / ``--trace``).
* :mod:`repro.obs.metrics` — the fold table from span attributes to
  labeled counter and histogram families, with Prometheus text + JSON
  snapshot exposition (``collecting()`` / ``--metrics``).
* :mod:`repro.obs.audit` — per-round cost-model invariant checks
  (``auditing()`` / ``--audit``), strict or recording.

Usage::

    from repro.obs import collecting, tracing, write_chrome_trace

    with tracing() as tracer, collecting() as registry:
        repro.run("connected-components", tree, dist)
    write_chrome_trace("cc.trace.json", tracer)   # chrome://tracing
    print(registry.snapshot()["counters"]["repro_rounds_total"])

See DESIGN.md ("Observability") for the span taxonomy, metric names,
and audit invariants.
"""

from repro.obs.tracer import (
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    get_tracer,
    tracing,
)
from repro.obs.export import (
    chrome_trace,
    span_metrics,
    write_chrome_trace,
)
from repro.obs.metrics import (
    MetricsRegistry,
    collecting,
    prometheus_text,
    write_snapshot,
)
from repro.obs.audit import (
    CostAuditor,
    NullAuditor,
    auditing,
    get_auditor,
)

__all__ = [
    "CostAuditor",
    "MetricsRegistry",
    "NullAuditor",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "auditing",
    "chrome_trace",
    "collecting",
    "get_auditor",
    "get_tracer",
    "prometheus_text",
    "span_metrics",
    "tracing",
    "write_chrome_trace",
]
