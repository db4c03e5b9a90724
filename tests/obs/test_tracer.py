"""Tracer behaviour: nesting, ordering, bounds, paths, shared threads."""

import threading

import pytest

from repro.context import use
from repro.obs.tracer import NullTracer, Tracer, get_tracer, tracing


class TestSpanNesting:
    def test_children_close_before_parents(self):
        with tracing() as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        names = [event.name for event in tracer.events]
        assert names == ["inner", "outer"]

    def test_depth_reflects_nesting(self):
        with tracing() as tracer:
            with tracer.span("a"):
                with tracer.span("b"):
                    with tracer.span("c"):
                        pass
        depths = {event.name: event.depth for event in tracer.events}
        assert depths == {"a": 0, "b": 1, "c": 2}

    def test_child_interval_within_parent(self):
        with tracing() as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        inner, outer = tracer.events
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert inner.duration >= 0.0

    def test_sibling_indices_are_monotone(self):
        with tracing() as tracer:
            for name in ("first", "second", "third"):
                with tracer.span(name):
                    pass
        indices = [event.index for event in tracer.events]
        assert indices == sorted(indices)
        assert len(set(indices)) == 3

    def test_exception_closes_span_and_marks_error(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with tracer.span("doomed"):
                    raise ValueError("boom")
        (event,) = tracer.events
        assert event.attrs["error"] == "ValueError"
        assert tracer.current_path() == ()


class TestAttributes:
    def test_span_kwargs_and_set_and_category(self):
        with tracing() as tracer:
            with tracer.span("s", category="cat", fixed=1) as span:
                span.set(late=2)
        (event,) = tracer.events
        assert event.attrs == {"fixed": 1, "late": 2, "category": "cat"}

    def test_annotate_hits_innermost_open_span(self):
        with tracing() as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    tracer.annotate(cost=3.5)
        by_name = {event.name: event.attrs for event in tracer.events}
        assert by_name["inner"] == {"cost": 3.5}
        assert by_name["outer"] == {}

    def test_annotate_without_open_span_is_a_noop(self):
        with tracing() as tracer:
            tracer.annotate(cost=1)
        assert tracer.events == []


class TestBoundedBuffer:
    def test_overflow_increments_dropped(self):
        with tracing(max_events=2) as tracer:
            for index in range(5):
                with tracer.span(f"s{index}"):
                    pass
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)

    def test_add_event_respects_bound(self):
        tracer = Tracer(max_events=1)
        tracer.add_event("a", 0.0, 1.0)
        tracer.add_event("b", 1.0, 2.0)
        assert [event.name for event in tracer.events] == ["a"]
        assert tracer.dropped == 1


class TestCurrentPath:
    def test_recording_tracer_path(self):
        with tracing() as tracer:
            assert tracer.current_path() == ()
            with tracer.span("outer"):
                with tracer.span("inner"):
                    assert tracer.current_path() == ("outer", "inner")
            assert tracer.current_path() == ()

    def test_null_tracer_tracks_path_without_events(self):
        tracer = NullTracer()
        with tracer.span("outer"):
            with tracer.span("inner", category="ignored", attr=1):
                assert tracer.current_path() == ("outer", "inner")
        assert tracer.current_path() == ()
        assert tracer.events == ()
        assert tracer.enabled is False


class TestInstallation:
    def test_default_is_a_null_tracer(self):
        assert isinstance(get_tracer(), NullTracer)
        assert get_tracer().enabled is False


class TestThreads:
    def test_shared_tracer_keeps_per_thread_stacks_and_tracks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(label):
            with use(tracer=tracer):
                with tracer.span(label):
                    barrier.wait(timeout=5)
                    assert tracer.current_path() == (label,)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",), name=f"worker-{i}")
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert {event.name for event in tracer.events} == {"t0", "t1"}
        assert {event.track for event in tracer.events} == {
            "worker-0",
            "worker-1",
        }

    def test_add_event_uses_explicit_track(self):
        with tracing() as tracer:
            tracer.add_event(
                "rank0/round 0",
                1.0,
                2.0,
                track="rank 0",
                category="worker-round",
                attrs={"rank": 0},
            )
        (event,) = tracer.events
        assert event.track == "rank 0"
        assert event.attrs == {"rank": 0, "category": "worker-round"}
        assert event.duration == 1.0
