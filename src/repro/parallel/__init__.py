"""Query-level parallelism: whole queries on persistent worker processes
(``run_many(..., executor="process")``, see :mod:`repro.parallel.pool`)."""

from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools

__all__ = ["WorkerPool", "get_pool", "shutdown_pools"]
