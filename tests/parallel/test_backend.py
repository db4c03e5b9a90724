"""Process-backend tests: dispatch, byte-identity, engine integration."""

import numpy as np
import pytest

from repro.context import current, use
from repro.data.generators import random_distribution
from repro.engine import RunPlan, run, run_many
from repro.errors import AnalysisError, ProtocolError
from repro.parallel import ParallelCluster
from repro.parallel.pool import shutdown_pools
from repro.registry import register_protocol
from repro.sim.cluster import Cluster, make_cluster
from repro.topology.builders import fat_tree, two_level


@pytest.fixture(autouse=True, scope="module")
def _shared_pools():
    yield
    shutdown_pools()


@pytest.fixture
def tree():
    return two_level([3, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)


class TestMakeCluster:
    def test_default_backend_is_sim(self, tree):
        assert current().backend == "sim"
        cluster = make_cluster(tree)
        assert cluster.backend == "sim"
        assert type(cluster) is Cluster

    def test_process_backend_dispatches(self, tree):
        with use(backend="process", backend_opts={"num_workers": 2}):
            cluster = make_cluster(tree)
            assert isinstance(cluster, ParallelCluster)
            assert cluster.backend == "process"
            cluster.close()

    def test_inner_sim_backend_wins(self, tree):
        with use(backend="process", backend_opts={"num_workers": 2}):
            with use(backend="sim", backend_opts={}):
                assert type(make_cluster(tree)) is Cluster

    def test_unknown_backend_rejected(self, tree):
        with use(backend="fpga"):
            with pytest.raises(
                ProtocolError,
                match=r"unknown execution backend 'fpga'; "
                r"registered: \('process', 'sim'\)",
            ):
                make_cluster(tree)

    def test_explicit_kwargs_override_backend_opts(self, tree):
        with use(backend="process", backend_opts={"num_workers": 2}):
            cluster = make_cluster(tree, num_workers=3)
            assert cluster.num_workers == 3
            cluster.close()


class TestRankMapping:
    def test_ranks_cover_contiguous_blocks(self, tree):
        cluster = ParallelCluster(tree, num_workers=3)
        computes = cluster.compute_order
        ranks = [cluster.rank_of(node) for node in computes]
        assert ranks == sorted(ranks)  # contiguous blocks, in order
        assert set(ranks) == {0, 1, 2}  # every rank owns someone
        cluster.close()

    def test_more_workers_than_nodes_still_covered(self, tree):
        cluster = ParallelCluster(tree, num_workers=2)
        assert {
            cluster.rank_of(node) for node in cluster.compute_order
        } == {0, 1}
        cluster.close()

    def test_non_compute_node_rejected(self, tree):
        cluster = ParallelCluster(tree, num_workers=2)
        with pytest.raises(ProtocolError, match="not a compute node"):
            cluster.rank_of("no-such-node")
        cluster.close()


class TestByteIdentity:
    def _drive(self, cluster):
        """A representative round mix: hashed unicast, multicast, send."""
        computes = cluster.compute_order
        rng = np.random.default_rng(5)
        for node in computes:
            cluster.put(node, "data", rng.integers(0, 10_000, size=300))
        with cluster.round() as ctx:
            for index, node in enumerate(computes):
                values = cluster.take(node, "data")
                ctx.exchange_column(
                    np.full(len(values), index),
                    values % len(computes),
                    values,
                    tag="shuf",
                )
        with cluster.round() as ctx:
            ctx.exchange_multicast_column(
                [0, 0],
                [0, 0, 1],
                ([1, 2, 3, 4, 5], [0, 3, 5]),
                np.arange(3, dtype=np.int64),
                tag="bc",
            )
            ctx.send(
                computes[2],
                computes[0],
                np.arange(5, dtype=np.int64),
                tag="back",
            )

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_oracle_identity_across_worker_counts(self, tree, num_workers):
        cluster = ParallelCluster(tree, num_workers=num_workers, oracle=True)
        self._drive(cluster)
        cluster.verify_oracle()  # loads, received, storage bytes, totals
        cluster.close()

    def test_matches_standalone_sim_run(self, tree):
        parallel = ParallelCluster(tree, num_workers=2)
        sim = Cluster(tree)
        self._drive(parallel)
        self._drive(sim)
        assert parallel.ledger.total_cost() == sim.ledger.total_cost()
        for node in parallel.compute_order:
            for tag in parallel.tags_at(node):
                assert np.array_equal(
                    parallel.local(node, tag), sim.local(node, tag)
                )
        parallel.close()

    def test_oracle_shadow_holds_the_loaded_distribution(self, tree):
        distribution = random_distribution(
            tree, r_size=120, s_size=80, policy="zipf", seed=2
        )
        cluster = ParallelCluster(
            tree, distribution, num_workers=2, oracle=True
        )
        try:
            cluster.verify_oracle()  # before any round: X_0 on both
            self._drive(cluster)
            cluster.verify_oracle()
        finally:
            cluster.close()

    def test_verify_without_oracle_rejected(self, tree):
        cluster = ParallelCluster(tree, num_workers=2)
        with pytest.raises(ProtocolError, match="without oracle=True"):
            cluster.verify_oracle()
        cluster.close()

    def test_exchange_mode_kwarg_is_gone(self, tree):
        with pytest.raises(TypeError, match="exchange_mode"):
            ParallelCluster(tree, num_workers=2, exchange_mode="bulk")


class TestEngineIntegration:
    @pytest.fixture
    def instance(self):
        tree = fat_tree(2, 2)
        dist = random_distribution(
            tree, r_size=600, s_size=600, policy="proportional", seed=3
        )
        return tree, dist

    def test_process_run_matches_sim(self, instance):
        tree, dist = instance
        sim = run("set-intersection", tree, dist, seed=2)
        proc = run(
            "set-intersection",
            tree,
            dist,
            seed=2,
            backend="process",
            num_workers=2,
        )
        assert proc.cost == sim.cost
        assert proc.rounds == sim.rounds

    def test_sorting_verifies_on_process_backend(self, instance):
        tree, dist = instance
        report = run(
            "sorting", tree, dist, seed=2, backend="process", num_workers=2
        )
        assert report.cost > 0  # verifier ran and accepted the output

    def test_backend_capability_enforced(self, instance):
        tree, dist = instance

        @register_protocol(
            task="sorting", name="sim-only-test", backends=("sim",)
        )
        def sim_only(tree, distribution, **kwargs):  # pragma: no cover
            raise AssertionError("must not dispatch")

        try:
            with pytest.raises(AnalysisError, match="supports backends"):
                run(
                    "sorting",
                    tree,
                    dist,
                    protocol="sim-only-test",
                    backend="process",
                )
        finally:
            # Deregister: the throwaway spec must not leak into the
            # catalog other tests (and users) enumerate.
            from repro.registry import _PROTOCOL_SPECS

            del _PROTOCOL_SPECS[("sorting", "sim-only-test")]

    def test_num_workers_requires_backend(self, instance):
        tree, dist = instance
        with pytest.raises(AnalysisError, match="requires an explicit"):
            run("sorting", tree, dist, num_workers=2)

    def test_num_workers_rejected_on_sim(self, instance):
        tree, dist = instance
        with pytest.raises(AnalysisError, match="only applies"):
            run("sorting", tree, dist, backend="sim", num_workers=2)


class TestRunManyExecutors:
    @pytest.fixture
    def plans(self):
        tree = fat_tree(2, 2)
        dist = random_distribution(
            tree, r_size=400, s_size=400, policy="proportional", seed=4
        )
        return [
            RunPlan("sorting", tree, dist, seed=seed) for seed in range(3)
        ]

    def test_process_executor_matches_thread(self, plans):
        thread = run_many(plans, workers=2)
        process = run_many(plans, workers=2, executor="process")
        assert [r.cost for r in process] == [r.cost for r in thread]
        assert [r.rounds for r in process] == [r.rounds for r in thread]

    def test_unknown_executor_rejected(self, plans):
        with pytest.raises(AnalysisError, match="executor must be"):
            run_many(plans, executor="rayon")

    def test_process_executor_annotates_failing_plan(self, plans):
        plans[1].protocol = "no-such-protocol"
        with pytest.raises(AnalysisError, match="unknown protocol") as info:
            run_many(plans, workers=2, executor="process")
        notes = " ".join(getattr(info.value, "__notes__", ()))
        assert "plan 1" in notes
        assert "worker rank" in notes

    def test_plan_with_process_backend_in_threads(self, plans):
        for plan in plans:
            plan.backend = "process"
            plan.num_workers = 2
        reports = run_many(plans, workers=2)
        baseline = run_many(plans, workers=1)
        assert [r.cost for r in reports] == [r.cost for r in baseline]
