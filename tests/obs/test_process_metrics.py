"""Cross-process metric merging: rank deltas sum to the sim's totals.

Every element delivered by the process backend is counted on exactly
one worker rank and shipped over the round barrier as a registry
snapshot; the master's merge must therefore reproduce the simulator's
master-side counts *byte-identically* — same families, same labels,
same integers — at any worker count and under both ``fork`` and
``spawn`` start methods.

Identity is asserted over the backend-agnostic round families only:
engine and pool families legitimately differ (they carry backend or
timing labels), which is itself asserted.
"""

import multiprocessing

import pytest

from repro.data.generators import random_distribution
from repro.engine import run
from repro.obs.metrics import collecting, get_registry
from repro.parallel import ParallelCluster
from repro.parallel.pool import get_pool, shutdown_pools
from repro.sim.cluster import Cluster
from tests.obs.shuffle import prepare_uniform_hash, rack_tree

#: Counter families recorded identically by both backends (no backend
#: label by design — see Cluster._record_round_metrics; compactions are
#: backend-agnostic because both substrates deliver exactly one chunk
#: per (dst, tag) per round and protocols issue identical reads).
ROUND_FAMILIES = (
    "repro_rounds_total",
    "repro_round_elements_total",
    "repro_round_bytes_total",
    "repro_delivered_elements_total",
    "repro_storage_compactions_total",
)

#: Histogram families over per-round ledger facts, likewise identical.
ROUND_HISTOGRAMS = ("repro_round_cost", "repro_max_edge_load")

START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


@pytest.fixture(autouse=True, scope="module")
def _shared_pools():
    yield
    shutdown_pools()


def _round_view(snapshot: dict) -> dict:
    return {
        "counters": {
            name: snapshot["counters"].get(name, {})
            for name in ROUND_FAMILIES
        },
        "histograms": {
            name: snapshot["histograms"].get(name, {})
            for name in ROUND_HISTOGRAMS
        },
    }


def _exchange_snapshot(tree, prepared, make_cluster, *, rounds=1) -> dict:
    with collecting() as registry:
        cluster = make_cluster()
        for _ in range(rounds):
            with cluster.round() as ctx:
                ctx.exchange_column(*prepared, tag="recv")
        if rounds > 1:
            # Reading a multi-round column compacts it lazily; both
            # backends must count those compactions identically.
            for node in cluster.compute_order:
                cluster.local(node, "recv")
        if isinstance(cluster, ParallelCluster):
            cluster.close()
    return registry.snapshot()


class TestMergeIdentity:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_round_families_byte_identical_to_sim(
        self, workers, start_method
    ):
        tree = rack_tree(4)
        prepared = prepare_uniform_hash(tree, 20_000, 7)
        sim = _exchange_snapshot(tree, prepared, lambda: Cluster(tree))
        pool = get_pool(workers, start_method=start_method, seed=7)
        proc = _exchange_snapshot(
            tree,
            prepared,
            lambda: ParallelCluster(tree, pool=pool, oracle=True),
        )
        assert _round_view(sim) == _round_view(proc)
        # sanity: the families actually recorded something
        assert sim["counters"]["repro_rounds_total"] == {"": 1}
        assert sum(sim["counters"]["repro_delivered_elements_total"].values()) == 20_000

    @pytest.mark.parametrize("workers", [1, 2])
    def test_storage_compactions_byte_identical_to_sim(self, workers):
        # Two rounds land two chunks per (node, "recv") column; reading
        # each column compacts it exactly once on either backend.
        tree = rack_tree(4)
        prepared = prepare_uniform_hash(tree, 20_000, 7)
        sim = _exchange_snapshot(
            tree, prepared, lambda: Cluster(tree), rounds=2
        )
        pool = get_pool(workers, seed=7)
        proc = _exchange_snapshot(
            tree,
            prepared,
            lambda: ParallelCluster(tree, pool=pool, oracle=True),
            rounds=2,
        )
        assert _round_view(sim) == _round_view(proc)
        compactions = sim["counters"]["repro_storage_compactions_total"]
        assert compactions == {"tag=recv": tree.num_compute_nodes}

    def test_pool_metrics_exist_only_on_the_process_backend(self):
        tree = rack_tree(2)
        prepared = prepare_uniform_hash(tree, 2_000, 7)
        sim = _exchange_snapshot(tree, prepared, lambda: Cluster(tree))
        pool = get_pool(2, seed=7)
        proc = _exchange_snapshot(
            tree,
            prepared,
            lambda: ParallelCluster(tree, pool=pool, oracle=True),
        )
        assert "repro_pool_broadcasts_total" not in sim["counters"]
        assert "repro_pool_broadcasts_total" in proc["counters"]
        assert "repro_pool_barrier_seconds" in proc["histograms"]

    def test_engine_run_round_families_match_across_backends(self):
        tree = rack_tree(4)
        dist = random_distribution(
            tree, r_size=500, s_size=500, policy="uniform", seed=3
        )
        with collecting() as sim_registry:
            sim_report = run("set-intersection", tree, dist, seed=1)
        with collecting() as proc_registry:
            proc_report = run(
                "set-intersection",
                tree,
                dist,
                seed=1,
                backend="process",
                num_workers=2,
            )
        assert sim_report.cost == proc_report.cost
        assert _round_view(sim_registry.snapshot()) == _round_view(
            proc_registry.snapshot()
        )
        # engine families carry the backend label and differ on it
        sim_runs = sim_registry.snapshot()["counters"]["repro_runs_total"]
        proc_runs = proc_registry.snapshot()["counters"]["repro_runs_total"]
        assert any("backend=sim" in key for key in sim_runs)
        assert any("backend=process" in key for key in proc_runs)

    def test_oracle_replay_does_not_double_count(self):
        # the process path replays each round through a shadow sim
        # cluster for verification; with metrics muted during replay the
        # round counter must still read exactly 1
        tree = rack_tree(2)
        prepared = prepare_uniform_hash(tree, 2_000, 7)
        pool = get_pool(2, seed=7)
        proc = _exchange_snapshot(
            tree,
            prepared,
            lambda: ParallelCluster(tree, pool=pool, oracle=True),
        )
        assert proc["counters"]["repro_rounds_total"] == {"": 1}

    def test_disabled_registry_ships_no_worker_payloads(self):
        tree = rack_tree(2)
        prepared = prepare_uniform_hash(tree, 2_000, 7)
        pool = get_pool(2, seed=7)
        cluster = ParallelCluster(tree, pool=pool, oracle=True)
        with cluster.round() as ctx:
            ctx.exchange_column(*prepared, tag="recv")
        cluster.close()
        assert not get_registry().enabled
        assert get_registry().snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
