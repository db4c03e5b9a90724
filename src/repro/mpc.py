"""The MPC model as a special case of the topology-aware model (Section 2.2).

The MPC model charges a round by the maximum data *received* by any
machine.  Encode it as an asymmetric star: compute-to-center links get
infinite bandwidth (sending is free) and center-to-compute links get
bandwidth 1 — then ``max_e |Y(e)| / w_e`` is exactly the maximum received
volume.  :func:`verify_mpc_equivalence` checks the identity on a
cluster's ledger, and :func:`mpc_uniform_distribution` builds the uniform
``N/p`` placement every prior MPC work assumes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.distribution import Distribution
from repro.data.generators import distribute, place_uniform
from repro.sim.cluster import Cluster
from repro.topology.builders import mpc_star
from repro.topology.tree import TreeTopology

__all__ = ["mpc_star", "mpc_uniform_distribution", "verify_mpc_equivalence"]


def mpc_uniform_distribution(
    tree: TreeTopology, values: np.ndarray
) -> Distribution:
    """The classic MPC assumption: each node starts with ``N/p`` elements
    of relation ``R``."""
    nodes = tree.left_to_right_compute_order()
    return distribute(values, place_uniform(len(values), nodes), tag="R")


def verify_mpc_equivalence(cluster: Cluster) -> list[tuple[float, float]]:
    """Check round cost == max received volume, per round, on an MPC star.

    Returns ``(round_cost, max_received)`` per round; they must be equal
    on the Section 2.2 star because only the unit-bandwidth downlinks
    carry cost, and the downlink into node ``v`` carries exactly what
    ``v`` receives.  Raises ``AssertionError`` on mismatch.
    """
    tree = cluster.tree
    center = tree.star_center()
    pairs: list[tuple[float, float]] = []
    for index in range(cluster.ledger.num_rounds):
        loads = cluster.ledger.round_loads(index)
        max_received = 0.0
        for (u, v), count in loads.items():
            if u == center and math.isfinite(tree.bandwidth(u, v)):
                max_received = max(
                    max_received, count / tree.bandwidth(u, v)
                )
        cost = cluster.ledger.round_cost(index)
        if not math.isclose(cost, max_received, rel_tol=1e-12, abs_tol=1e-12):
            raise AssertionError(
                f"round {index}: cost {cost} != max received {max_received}"
            )
        pairs.append((cost, max_received))
    return pairs
