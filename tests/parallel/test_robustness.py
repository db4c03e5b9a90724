"""Failure-path tests: crashes, timeouts, oracle divergence, no leaks.

The substrate's robustness contract: a worker crash (SIGKILL) or a
round-deadline overrun surfaces as :class:`ProtocolError` annotated
with the guilty rank and the failing round — mirroring the
``run_many: plan {index}`` note pattern — and the pool reclaims every
shared-memory segment, so no ``/dev/shm/repro-shm-*`` blocks leak.
"""

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.parallel import ParallelCluster
from repro.parallel.oracle import OracleMismatch
from repro.parallel.pool import WorkerPool
from repro.parallel.shmem import SEGMENT_PREFIX
from repro.topology.builders import two_level

SLEEP = "repro.parallel.pool:_sleep_kernel"


def _shm_entries() -> set:
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-*"))


@pytest.fixture
def tree():
    return two_level([3, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0)


class TestPoolFailures:
    def test_timeout_names_ranks_and_closes_pool(self):
        pool = WorkerPool(2, seed=0)
        with pytest.raises(ProtocolError, match=r"timed out.*rank"):
            pool.broadcast(SLEEP, [30.0, 30.0], timeout=0.3, label="round 7")
        assert pool.closed

    def test_timeout_error_names_the_round(self):
        pool = WorkerPool(1, seed=0)
        with pytest.raises(ProtocolError, match="round 7"):
            pool.broadcast(SLEEP, [30.0], timeout=0.3, label="round 7")

    def test_sigkill_names_rank_and_exit_code(self):
        pool = WorkerPool(2, seed=0)
        victim = pool.pids[1]
        threading.Timer(0.2, os.kill, args=(victim, signal.SIGKILL)).start()
        with pytest.raises(ProtocolError, match=r"lost worker rank 1.*-9"):
            pool.broadcast(SLEEP, [30.0, 30.0], timeout=30, label="round 3")
        assert pool.closed

    def test_failed_pool_reclaims_shared_memory(self):
        before = _shm_entries()
        pool = WorkerPool(2, seed=0)
        pool.shm.lease_array(np.int64, 50_000)
        assert _shm_entries() > before
        with pytest.raises(ProtocolError):
            pool.broadcast(SLEEP, [30.0, 30.0], timeout=0.3)
        assert _shm_entries() == before

    def test_shutdown_reclaims_shared_memory(self):
        before = _shm_entries()
        pool = WorkerPool(1, seed=0)
        pool.shm.lease_array(np.int64, 50_000)
        pool.shutdown()
        assert _shm_entries() == before

    def test_broken_pool_reports_reason(self):
        pool = WorkerPool(1, seed=0)
        with pytest.raises(ProtocolError):
            pool.broadcast(SLEEP, [30.0], timeout=0.3, label="round 2")
        with pytest.raises(ProtocolError, match="round 2"):
            pool.broadcast(SLEEP, [0.0])


class TestClusterFailures:
    def _shuffle(self, cluster):
        computes = cluster.compute_order
        with cluster.round() as ctx:
            for node in computes:
                values = np.arange(50, dtype=np.int64)
                ctx.exchange(
                    node,
                    values % len(computes),
                    values,
                    tag="shuf",
                    nodes=computes,
                )

    def test_round_timeout_annotated_with_round_and_topology(self, tree):
        pool = WorkerPool(2, seed=0)
        # A deadline no real round can meet forces the timeout path.
        cluster = ParallelCluster(tree, pool=pool, round_timeout=1e-9)
        with pytest.raises(ProtocolError) as info:
            self._shuffle(cluster)
        notes = " ".join(getattr(info.value, "__notes__", ()))
        assert "round 0" in notes
        assert tree.name in notes
        assert "process backend" in notes
        assert pool.closed

    def test_worker_crash_mid_round_annotated(self, tree):
        pool = WorkerPool(2, seed=0)
        cluster = ParallelCluster(tree, pool=pool)
        victim = pool.pids[0]

        def kill_soon():
            time.sleep(0.2)
            os.kill(victim, signal.SIGKILL)

        computes = cluster.compute_order
        threading.Thread(target=kill_soon).start()
        with pytest.raises(ProtocolError, match="lost worker rank 0"):
            # Two rounds with a pause between: the kill lands mid-run.
            for _ in range(40):
                self._shuffle(cluster)
                time.sleep(0.05)
        assert pool.closed

    def test_crashed_run_leaves_no_segments(self, tree):
        before = _shm_entries()
        pool = WorkerPool(2, seed=0)
        cluster = ParallelCluster(tree, pool=pool, round_timeout=1e-9)
        with pytest.raises(ProtocolError):
            self._shuffle(cluster)
        cluster.close()
        assert _shm_entries() == before


class TestOracleDivergence:
    def test_tampered_storage_is_caught(self, tree):
        pool = WorkerPool(2, seed=0)
        try:
            cluster = ParallelCluster(tree, pool=pool, oracle=True)
            self._seed_and_shuffle(cluster)
            node = cluster.compute_order[0]
            # Corrupt one received column behind the oracle's back.
            cluster._storage.append(
                node, "shuf", np.array([999_999], dtype=np.int64)
            )
            with pytest.raises(OracleMismatch):
                cluster.verify_oracle()
            cluster.close()
        finally:
            pool.shutdown()

    def test_divergent_round_is_caught_immediately(self, tree):
        pool = WorkerPool(2, seed=0)
        try:
            cluster = ParallelCluster(tree, pool=pool, oracle=True)
            self._seed_and_shuffle(cluster)  # round 0: identical, passes
            # Fake a delivery bug: the parallel side claims one more
            # received element than it was ever sent.  The *next*
            # round's replay must refuse it.
            node = cluster.compute_order[0]
            cluster._add_received(node, 1)
            with pytest.raises(OracleMismatch, match="received"):
                self._seed_and_shuffle(cluster)
            cluster.close()
        finally:
            pool.shutdown()

    def _seed_and_shuffle(self, cluster):
        computes = cluster.compute_order
        with cluster.round() as ctx:
            for node in computes:
                values = np.arange(80, dtype=np.int64)
                ctx.exchange(
                    node,
                    values % len(computes),
                    values,
                    tag="shuf",
                    nodes=computes,
                )
