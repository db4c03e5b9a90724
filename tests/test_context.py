"""The run context: one frozen record of run-scoped state per thread."""

import dataclasses
import sys
import threading

import pytest

from repro import engine
from repro.context import current, default, use
from repro.data.generators import random_distribution
from repro.engine import RunPlan, run_many
from repro.obs.audit import CostAuditor, NullAuditor, auditing, get_auditor
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.tracer import (
    FoldingTracer,
    NullTracer,
    Tracer,
    get_tracer,
    tracing,
)
from repro.parallel.pool import WorkerPool
from repro.topology.artifacts import ArtifactCache, use_artifacts
from repro.topology.builders import fat_tree

#: One change per field of the context.
CHANGES = {
    "tracer": lambda: {"tracer": Tracer()},
    "registry": lambda: {"registry": MetricsRegistry()},
    "auditor": lambda: {"auditor": CostAuditor()},
    "artifacts": lambda: {"artifacts": ArtifactCache()},
}
FIELDS = sorted(CHANGES)


class TestDefault:
    @pytest.mark.parametrize("field", ["backend", "backend_opts"])
    def test_the_backend_is_not_run_context_state(self, field):
        # a backend is an argument of one run, not installed state
        with pytest.raises(TypeError, match=field):
            with use(**{field: None}):
                pass

    def test_every_thread_starts_from_the_default(self):
        context = default()
        assert current() is context
        assert isinstance(context.tracer, NullTracer)
        assert context.registry is None
        assert isinstance(context.auditor, NullAuditor)
        assert context.artifacts is None
        assert {f.name for f in dataclasses.fields(context)} == set(FIELDS)

    def test_context_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            current().artifacts = ArtifactCache()

    def test_readers_read_the_current_context(self):
        hooks = {
            **CHANGES["tracer"](),
            **CHANGES["registry"](),
            **CHANGES["auditor"](),
        }
        with use(**hooks) as context:
            assert get_tracer() is context.tracer
            assert get_auditor() is context.auditor

    def test_the_default_null_tracer_keeps_a_path_per_thread(self):
        """Eight threads nest spans on the one shared default tracer under
        a short switch interval; a shared path would mix their names."""
        tracer = default().tracer
        barrier = threading.Barrier(8)
        wrong = []

        def work(label):
            barrier.wait(timeout=5)
            for _ in range(2_000):
                with tracer.span(label):
                    with tracer.span("inner"):
                        if tracer.current_path() != (label, "inner"):
                            wrong.append(tracer.current_path())

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert tracer.current_path() == ()


@pytest.mark.parametrize("field", FIELDS)
class TestUse:
    def test_installs_the_change_and_restores(self, field):
        before = current()
        changes = CHANGES[field]()
        with use(**changes) as context:
            assert current() is context
            assert context == dataclasses.replace(before, **changes)
        assert current() is before

    def test_restores_on_exception(self, field):
        before = current()
        with pytest.raises(RuntimeError):
            with use(**CHANGES[field]()):
                raise RuntimeError("boom")
        assert current() is before

    def test_nested_blocks_restore_the_outer_context(self, field):
        with use(**CHANGES[field]()) as outer:
            with use(tracer=Tracer()) as inner:
                assert current() is inner
                assert inner == dataclasses.replace(outer, tracer=inner.tracer)
            assert current() is outer

    def test_installation_is_thread_local(self, field):
        seen = []
        with use(**CHANGES[field]()):
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join()
        assert seen == [default()]

    def test_a_captured_context_installs_unchanged(self, field):
        with use(**CHANGES[field]()) as captured:
            pass
        with use(captured) as installed:
            assert installed == captured
        assert current() is default()


@pytest.mark.parametrize(
    "front_end, field",
    [
        (tracing, "tracer"),
        (auditing, "auditor"),
        (lambda: use_artifacts(ArtifactCache()), "artifacts"),
    ],
)
def test_front_ends_change_one_field(front_end, field):
    before = current()
    with front_end() as installed:
        assert current() == dataclasses.replace(before, **{field: installed})
    assert current() is before


def test_collecting_adds_a_folding_tracer_only_when_none_records():
    before = current()
    with collecting() as registry:
        assert current().registry is registry
        assert isinstance(current().tracer, FoldingTracer)
    assert current() is before
    with tracing() as tracer, collecting() as registry:
        assert current() == dataclasses.replace(
            before, tracer=tracer, registry=registry
        )


class TestRunMany:
    @pytest.fixture
    def plans(self):
        tree = fat_tree(2, 2)
        dist = random_distribution(
            tree, r_size=200, s_size=200, policy="proportional", seed=4
        )
        return [RunPlan("sorting", tree, dist, seed=seed) for seed in range(2)]

    @pytest.mark.parametrize("field", FIELDS)
    def test_every_field_reaches_in_caller_plans(
        self, plans, field, monkeypatch
    ):
        seen = []
        execute = engine._execute_annotated

        def probe(indexed):
            seen.append((threading.current_thread(), current()))
            return execute(indexed)

        monkeypatch.setattr(engine, "_execute_annotated", probe)
        with use(**CHANGES[field]()) as caller:
            run_many(plans)
        assert len(seen) == 2
        for thread, context in seen:
            assert thread is threading.current_thread()
            assert context == caller


def _worker_context(_payload) -> tuple:
    """What a pool worker's jobs run under."""
    context = current()
    return (
        type(context.tracer).__name__,
        type(context.auditor).__name__,
        context.artifacts,
    )


def test_a_pool_forked_inside_hooks_starts_workers_from_the_default():
    with tracing(), auditing(), use_artifacts(ArtifactCache()):
        pool = WorkerPool(2)
    try:
        replies = pool.map(_worker_context, [0, 0])
    finally:
        pool.shutdown()
    assert replies == [("NullTracer", "NullAuditor", None)] * 2

