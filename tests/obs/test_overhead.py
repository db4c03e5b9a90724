"""The observability-off overhead guard.

The contract from the design: with no recording tracer, metrics
registry, or auditor installed, the instrumentation costs a few
run-context reads plus a no-op span per *round* (never
per element).  This test prices the full disabled hook sequence a
round touches and asserts it stays far under 5% of a small prepared
uniform-hash round.
"""

from time import perf_counter

from repro.obs.audit import NullAuditor, get_auditor
from repro.obs.metrics import NullRegistry, get_registry
from repro.obs.tracer import NullTracer, get_tracer
from repro.sim.cluster import Cluster
from tests.obs.shuffle import prepare_uniform_hash, rack_tree


def _round_seconds(tree, prepared) -> float:
    """Wall time of one prepared round on a fresh cluster."""
    cluster = Cluster(tree)
    start = perf_counter()
    with cluster.round() as ctx:
        ctx.exchange_column(*prepared, tag="recv")
    return perf_counter() - start


def _disabled_hook_seconds(repeats: int = 2_000) -> float:
    """Per-iteration cost of every hook a disabled round executes."""
    tracer = get_tracer()
    assert isinstance(tracer, NullTracer)
    assert isinstance(get_registry(), NullRegistry)
    assert isinstance(get_auditor(), NullAuditor)
    start = perf_counter()
    for index in range(repeats):
        with tracer.span(f"round {index}", category="round", backend="sim"):
            if tracer.enabled:  # the gate phase timers hide behind
                raise AssertionError("tracer should be disabled")
            tracer.annotate(cost=1.0)
        # the metrics and audit gates Cluster.round executes per round
        registry = get_registry()
        if registry.enabled:
            raise AssertionError("registry should be disabled")
        auditor = get_auditor()
        if auditor.enabled:
            raise AssertionError("auditor should be disabled")
        auditor.before_round(None)
    return (perf_counter() - start) / repeats


class TestDisabledOverhead:
    def test_null_hooks_are_under_five_percent_of_a_small_round(self):
        tree = rack_tree(4)
        prepared = prepare_uniform_hash(tree, 50_000, 7)
        # Both sides are the best of interleaved samples a few ms long,
        # so a scheduler pause on a busy host inflates neither alone.
        samples = [
            (_round_seconds(tree, prepared), _disabled_hook_seconds())
            for _ in range(10)
        ]
        round_seconds = min(round_s for round_s, _ in samples)
        hook_seconds = min(hook_s for _, hook_s in samples)
        # A bulk round opens one round span; allow 20 hook executions
        # of headroom and the margin is still enormous (~microseconds
        # of hooks vs milliseconds of round).
        assert hook_seconds * 20 < 0.05 * round_seconds, (
            f"disabled tracing hooks cost {hook_seconds * 1e6:.2f}us each "
            f"vs a {round_seconds * 1e3:.2f}ms round — the no-op path "
            "grew real work"
        )

    def test_null_tracer_records_nothing_during_a_round(self):
        tree = rack_tree(2)
        prepared = prepare_uniform_hash(tree, 2_000, 7)
        tracer = get_tracer()
        _round_seconds(tree, prepared)
        assert tracer.events == ()
        assert tracer.current_path() == ()
