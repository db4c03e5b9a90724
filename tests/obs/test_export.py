"""Chrome-trace schema validation and metrics round-trip properties."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.export import chrome_trace, span_metrics, write_chrome_trace
from repro.obs.tracer import SpanEvent, Tracer, tracing


def _span_on_thread(tracer, track: str, name: str, **attrs) -> None:
    """One span recorded by a thread named ``track``."""

    def work():
        with tracer.span(name, **attrs):
            pass

    thread = threading.Thread(target=work, name=track)
    thread.start()
    thread.join()


def _record(tracer, *spans) -> None:
    """Record ``(name, start, end, category)`` tuples as finished spans
    with given timestamps."""
    for name, start, end, category in spans:
        tracer._record(SpanEvent(name, start, end, {"category": category}))


def _sample_tracer() -> Tracer:
    with tracing() as tracer:
        with tracer.span("engine.run demo", category="engine", task="demo"):
            with tracer.span("round 0", category="round", round=0):
                tracer.annotate(round_cost=2.5, max_edge_load=5)
        _span_on_thread(tracer, "worker", "run 1", category="thread-run")
    return tracer


class TestChromeTraceSchema:
    def test_required_keys_on_every_event(self):
        payload = chrome_trace(_sample_tracer())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events, "expected at least one event"
        for event in events:
            assert {"name", "ph", "pid", "tid", "args"} <= set(event)
            assert event["ph"] in ("X", "M")
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert isinstance(event["args"], dict)

    def test_metadata_names_every_track(self):
        payload = chrome_trace(_sample_tracer())
        meta = {
            event["args"]["name"]: event["tid"]
            for event in payload["traceEvents"]
            if event["ph"] == "M"
        }
        assert meta["main"] == 0
        assert "worker" in meta
        used_tids = {
            event["tid"]
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        }
        assert used_tids <= set(meta.values())

    def test_timestamps_relative_and_ordered(self):
        payload = chrome_trace(_sample_tracer())
        stamps = [
            event["ts"]
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        ]
        assert stamps == sorted(stamps)
        assert min(stamps) == 0.0

    def test_strictly_json_serializable(self):
        tracer = _sample_tracer()
        # Inject the awkward types _jsonify exists for.
        tracer.events[0].attrs["np_int"] = np.int64(7)
        tracer.events[0].attrs["np_float"] = np.float64(1.5)
        tracer.events[0].attrs["nan"] = float("nan")
        text = json.dumps(chrome_trace(tracer), allow_nan=False)
        decoded = json.loads(text)
        (args,) = [
            e["args"] for e in decoded["traceEvents"] if e["name"] == "round 0"
        ]
        assert args["np_int"] == 7
        assert args["nan"] is None

    def test_extra_kwargs_become_top_level_keys(self):
        tracer = _sample_tracer()
        payload = chrome_trace(tracer, metrics=span_metrics(tracer), grid="8x8")
        assert payload["grid"] == "8x8"
        assert payload["metrics"]["num_events"] == len(tracer.events)

    def test_empty_tracer_exports_cleanly(self):
        with tracing() as tracer:
            pass
        payload = chrome_trace(tracer)
        assert [e["ph"] for e in payload["traceEvents"]] == ["M"]
        json.dumps(payload, allow_nan=False)

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "demo.trace.json"
        payload = write_chrome_trace(path, tracer, metrics=span_metrics(tracer))
        assert json.loads(path.read_text()) == payload


class TestMetrics:
    def test_aggregates_by_category(self):
        tracer = _sample_tracer()
        summary = span_metrics(tracer)
        assert set(summary["spans"]) == {"engine", "round", "thread-run"}
        assert summary["spans"]["round"]["count"] == 1
        assert summary["num_events"] == 3
        assert summary["dropped"] == 0

    def test_uncategorized_spans_fall_back_to_name(self):
        with tracing() as tracer:
            with tracer.span("bare"):
                pass
        assert set(span_metrics(tracer)["spans"]) == {"bare"}

    def test_bucket_stats_are_consistent(self):
        tracer = Tracer()
        _record(tracer, ("a", 0.0, 1.0, "c"), ("b", 0.0, 3.0, "c"))
        bucket = span_metrics(tracer)["spans"]["c"]
        assert bucket["count"] == 2
        assert bucket["total_s"] == pytest.approx(4.0)
        assert bucket["min_s"] == pytest.approx(1.0)
        assert bucket["max_s"] == pytest.approx(3.0)
        assert bucket["mean_s"] == pytest.approx(2.0)

    @given(
        spans=st.lists(
            st.tuples(
                st.sampled_from(["round", "engine", "stage", "barrier"]),
                st.floats(
                    min_value=0.0,
                    max_value=1e3,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.floats(
                    min_value=0.0,
                    max_value=1e3,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            max_size=30,
        )
    )
    def test_metrics_json_round_trip(self, spans):
        tracer = Tracer()
        _record(
            tracer,
            *(
                (category, start, start + duration, category)
                for category, start, duration in spans
            ),
        )
        summary = span_metrics(tracer)
        encoded = json.dumps(summary, allow_nan=False)
        assert json.loads(encoded) == summary
        total = sum(
            bucket["count"] for bucket in summary["spans"].values()
        )
        assert total == summary["num_events"] == len(spans)


class TestTrackOrder:
    def _tids(self, tracer) -> dict:
        return {
            event["args"]["name"]: event["tid"]
            for event in chrome_trace(tracer)["traceEvents"]
            if event["ph"] == "M"
        }

    def test_main_first_then_first_appearance(self):
        tracer = Tracer()
        _span_on_thread(tracer, "zeta", "z")
        with tracer.span("m"):
            pass
        _span_on_thread(tracer, "alpha", "a")
        assert self._tids(tracer) == {"main": 0, "zeta": 1, "alpha": 2}

    def test_every_event_tid_matches_its_track_metadata(self):
        tracer = Tracer()
        for track in ("t3", "t1", "t2"):
            _span_on_thread(tracer, track, f"{track}/run")
        tids = self._tids(tracer)
        for event in chrome_trace(tracer)["traceEvents"]:
            if event["ph"] == "X":
                assert event["tid"] == tids[event["name"].split("/")[0]]


class TestDroppedEvents:
    def _overflowed_tracer(self) -> Tracer:
        tracer = Tracer(max_events=2)
        for index in range(5):
            _record(tracer, (f"event {index}", 0.0, 1.0, None))
        assert tracer.dropped == 3
        return tracer

    def test_dropped_count_is_stamped_top_level(self):
        payload = chrome_trace(self._overflowed_tracer())
        assert payload["dropped"] == 3
        assert chrome_trace(_sample_tracer())["dropped"] == 0

    def test_write_warns_on_stderr_when_truncated(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        payload = write_chrome_trace(path, self._overflowed_tracer())
        err = capsys.readouterr().err
        assert "3 event(s) dropped" in err
        assert json.loads(path.read_text())["dropped"] == payload["dropped"]

    def test_write_is_silent_when_nothing_dropped(self, tmp_path, capsys):
        write_chrome_trace(tmp_path / "t.json", _sample_tracer())
        assert capsys.readouterr().err == ""
