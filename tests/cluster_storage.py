"""Node storage filled by hand, for tests that seed a cluster one
fragment at a time instead of through ``Cluster.load``."""

import numpy as np


def put(cluster, node, tag: str, values) -> None:
    """Add ``values`` at the end of ``node``'s storage under ``tag`` as a
    one-stretch table (referenced, not copied, when already a 1-D
    ``int64`` array)."""
    payload = np.asarray(values, dtype=np.int64)
    if len(payload):
        owner = np.array([cluster.compute_order.index(node)])
        cluster._storage.install(
            str(tag), owner, np.array([0]), np.array([len(payload)]), payload
        )
