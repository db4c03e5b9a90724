"""Node storage filled by hand, for tests that seed a cluster one
fragment at a time instead of through ``Cluster.load``."""

import numpy as np


def put(cluster, node, tag: str, values) -> None:
    """Append ``values`` to ``node``'s storage under ``tag`` (referenced,
    not copied, when already a 1-D ``int64`` array)."""
    payload = np.asarray(values, dtype=np.int64)
    if len(payload):
        cluster._storage.append(node, str(tag), payload)
