"""Real-parallel execution substrate: shared-memory worker processes.

:class:`ParallelCluster` is the ``"process"`` execution backend:
``make_cluster`` builds one when the run context's backend is
``"process"`` — as inside ``engine.run(..., backend="process")`` — and
runs protocol rounds across OS processes with the simulated ledger as
byte-identical oracle.
"""

from repro.parallel.backend import ParallelCluster, ParallelRoundContext
from repro.parallel.oracle import (
    LedgerOracle,
    OracleMismatch,
    assert_clusters_identical,
)
from repro.parallel.pool import (
    WorkerPool,
    default_start_method,
    get_pool,
    shutdown_pools,
)
from repro.parallel.shmem import SharedArrayPool, attach_array

__all__ = [
    "LedgerOracle",
    "OracleMismatch",
    "ParallelCluster",
    "ParallelRoundContext",
    "SharedArrayPool",
    "WorkerPool",
    "assert_clusters_identical",
    "attach_array",
    "default_start_method",
    "get_pool",
    "shutdown_pools",
]
