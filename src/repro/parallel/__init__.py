"""Query-level parallelism: a persistent pool of worker processes.

Queries are independent, so whole queries are what crosses a process
boundary: ``run_many(..., executor="process")`` deals plans to the
workers, and ``run(..., backend="process")`` runs one query on one of
them.  The simulated network itself always runs in one process.
"""

from repro.parallel.pool import (
    WorkerPool,
    default_start_method,
    get_pool,
    shutdown_pools,
)

__all__ = [
    "WorkerPool",
    "default_start_method",
    "get_pool",
    "shutdown_pools",
]
