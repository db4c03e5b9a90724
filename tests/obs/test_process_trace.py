"""Process-backend tracing: rank merge, attr identity, failure paths."""

import pytest

from repro.errors import ProtocolError
from repro.obs.tracer import get_tracer, tracing
from repro.parallel import ParallelCluster
from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools
from repro.sim.cluster import Cluster
from tests.obs.shuffle import prepare_uniform_hash, rack_tree

SLEEP = "repro.parallel.pool:_sleep_kernel"

ROUND_ATTRS = (
    "round_cost",
    "bottleneck_edge",
    "max_edge_load",
    "elements_by_tag",
    "bytes_by_tag",
)


@pytest.fixture(autouse=True, scope="module")
def _shared_pools():
    yield
    shutdown_pools()


def _round_events(tracer):
    return [
        event
        for event in tracer.events
        if event.attrs.get("category") == "round"
    ]


def _run_traced(tree, prepared, cluster_factory):
    with tracing() as tracer:
        cluster = cluster_factory()
        with cluster.round() as ctx:
            for node, targets, payload in prepared:
                ctx.exchange(node, targets, payload, tag="recv")
        if isinstance(cluster, ParallelCluster):
            cluster.close()
    return tracer


class TestProcessTraceIdentity:
    def test_round_attrs_identical_to_sim_and_ranks_merged(self):
        tree = rack_tree(4)
        prepared = prepare_uniform_hash(tree, 20_000, 7)

        sim_tracer = _run_traced(tree, prepared, lambda: Cluster(tree))
        pool = get_pool(2, seed=7)
        proc_tracer = _run_traced(
            tree,
            prepared,
            lambda: ParallelCluster(tree, pool=pool, oracle=True),
        )

        (sim_round,) = _round_events(sim_tracer)
        (proc_round,) = _round_events(proc_tracer)
        for key in ROUND_ATTRS:
            assert sim_round.attrs[key] == proc_round.attrs[key], key
        assert proc_round.attrs["backend"] == "process"
        assert sim_round.attrs["backend"] == "sim"

        # The oracle's shadow replay must not have produced a second
        # round span (it runs under a muted tracer).
        assert len(_round_events(proc_tracer)) == 1

        # Worker activity arrives rank-qualified on per-rank tracks.
        worker = [
            event
            for event in proc_tracer.events
            if event.attrs.get("category") == "worker-round"
        ]
        assert {event.track for event in worker} == {"rank 0", "rank 1"}
        assert {event.name for event in worker} == {
            "rank0/round 0",
            "rank1/round 0",
        }
        for event in worker:
            assert event.attrs["round"] == 0
            assert event.duration > 0.0

        barriers = [
            event
            for event in proc_tracer.events
            if event.attrs.get("category") == "barrier"
        ]
        assert barriers, "expected a pool.barrier span"

    def test_untraced_process_round_ships_no_span_payloads(self):
        tree = rack_tree(2)
        prepared = prepare_uniform_hash(tree, 2_000, 7)
        pool = get_pool(2, seed=7)
        cluster = ParallelCluster(tree, pool=pool, oracle=True)
        with cluster.round() as ctx:
            for node, targets, payload in prepared:
                ctx.exchange(node, targets, payload, tag="recv")
        cluster.close()
        assert get_tracer().events == ()


class TestFailurePathSpans:
    def test_timeout_error_carries_active_span_stack(self):
        tracer = get_tracer()  # the default no-op tracer suffices
        pool = WorkerPool(2, seed=0)
        with tracer.span("superstep 3"):
            with tracer.span("stage 1 join"):
                with pytest.raises(
                    ProtocolError,
                    match=r"active spans: superstep 3 > stage 1 join",
                ) as excinfo:
                    pool.broadcast(
                        SLEEP, [30.0, 30.0], timeout=0.3, label="round 7"
                    )
        assert "round 7" in str(excinfo.value)
        assert pool.closed

    def test_failure_without_outer_spans_names_the_barrier(self):
        pool = WorkerPool(1, seed=0)
        with pytest.raises(ProtocolError) as excinfo:
            pool.broadcast(SLEEP, [30.0], timeout=0.3, label="round 2")
        # broadcast itself runs inside a pool.barrier span, so even a
        # bare failure names where it happened.
        assert "[active spans: pool.barrier]" in str(excinfo.value)
