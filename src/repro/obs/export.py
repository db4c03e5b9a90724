"""Trace exports: Chrome-trace JSON and a flat span-summary dict.

:func:`chrome_trace` turns a :class:`~repro.obs.tracer.Tracer`'s event
buffer into the Chrome Trace Event Format (the JSON ``chrome://tracing``
and Perfetto load), one complete ``"X"`` event per finished span plus
``"M"`` metadata events naming the tracks.  :func:`span_metrics`
reduces the same buffer to a flat ``{category: {count, total_s, ...}}``
dict that ``RunReport``-family ``meta`` payloads can embed.  (Standing
labeled counters live in :mod:`repro.obs.metrics`.)
"""

from __future__ import annotations

import json
import sys
from typing import Any

from repro.report import _jsonify

#: pid used for every event — the trace describes one logical run, and
#: threads are distinguished by tid (track), not pid.
TRACE_PID = 0


def _track_order(tracer) -> dict[str, int]:
    """Deterministic track → tid mapping for the trace viewer:
    ``"main"`` is tid 0, every other track follows in order of first
    appearance in the buffer."""
    tids: dict[str, int] = {"main": 0}
    for event in tracer.events:
        tids.setdefault(event.track, len(tids))
    return tids


def chrome_trace(tracer, **extra: Any) -> dict:
    """Render ``tracer``'s buffer as a Chrome-trace-format dict.

    Timestamps are microseconds relative to the earliest span start, so
    the viewer's timeline starts at zero regardless of the machine's
    ``perf_counter`` epoch.  ``extra`` keyword entries become additional
    top-level keys (the format allows them); the CLI uses this to embed
    the :func:`span_metrics` summary alongside ``traceEvents``.  The
    tracer's ``dropped`` count is always stamped top-level so a
    truncated trace is detectable from the file alone.
    """
    events = sorted(tracer.events, key=lambda e: (e.start, e.index))
    t0 = events[0].start if events else 0.0
    tids = _track_order(tracer)

    trace_events: list[dict] = []
    for track, tid in tids.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for event in events:
        trace_events.append(
            {
                "name": event.name,
                "ph": "X",
                "ts": (event.start - t0) * 1e6,
                "dur": event.duration * 1e6,
                "pid": TRACE_PID,
                "tid": tids[event.track],
                "args": _jsonify(event.attrs),
            }
        )
    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "dropped": tracer.dropped,
    }
    for key, value in extra.items():
        payload[key] = _jsonify(value)
    return payload


def span_metrics(tracer) -> dict:
    """Flat per-category summary of a tracer's buffer.

    Spans aggregate under their ``category`` attribute (falling back to
    the span name, so uncategorized spans still appear); each bucket
    reports ``count`` and total/min/max/mean seconds.  The result is
    strictly JSON-serializable and survives
    ``json.dumps(..., allow_nan=False)``.
    """
    buckets: dict[str, dict] = {}
    for event in tracer.events:
        key = str(event.attrs.get("category", event.name))
        bucket = buckets.get(key)
        duration = event.duration
        if bucket is None:
            buckets[key] = {
                "count": 1,
                "total_s": duration,
                "min_s": duration,
                "max_s": duration,
            }
        else:
            bucket["count"] += 1
            bucket["total_s"] += duration
            bucket["min_s"] = min(bucket["min_s"], duration)
            bucket["max_s"] = max(bucket["max_s"], duration)
    for bucket in buckets.values():
        bucket["mean_s"] = bucket["total_s"] / bucket["count"]
    return _jsonify(
        {
            "spans": buckets,
            "num_events": len(tracer.events),
            "dropped": tracer.dropped,
        }
    )


def write_chrome_trace(path, tracer, **extra: Any) -> dict:
    """Write :func:`chrome_trace` JSON to ``path``; returns the payload.

    Warns on stderr when the tracer's ring buffer overflowed — the file
    is still written (with the ``dropped`` count stamped top-level),
    but span statistics computed from it undercount.
    """
    payload = chrome_trace(tracer, **extra)
    if tracer.dropped:
        print(
            f"warning: trace buffer overflowed, {tracer.dropped} "
            f"event(s) dropped from {path}",
            file=sys.stderr,
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, allow_nan=False)
        handle.write("\n")
    return payload
