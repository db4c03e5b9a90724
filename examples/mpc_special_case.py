#!/usr/bin/env python3
"""The MPC model as a special case of the topology-aware model (Sec. 2.2).

Encodes the MPC model as an asymmetric star — infinite uplinks, unit
downlinks — and demonstrates that the topology-aware round cost is then
exactly the MPC measure (maximum data received per machine).  Then runs
the classic uniform hash join under both the MPC star and a *symmetric*
heterogeneous star to show why topology-awareness matters: the identical
traffic pattern costs 4x more when one link is 4x slower, something the
MPC model cannot express.

Run:  python examples/mpc_special_case.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.mpc import mpc_star, verify_mpc_equivalence
from repro.sim.cluster import Cluster


def main() -> None:
    p = 6
    tree = mpc_star(p)
    print("The MPC star (infinite uplinks, unit downlinks):")
    print(repro.ascii_tree(tree, root="o"))
    print()

    # Any communication pattern: cost == max received.  The round's
    # unicasts are runs: one (source, target, count) triple per ordered
    # pair of machines, nodes named by their compute-order index.
    cluster = Cluster(tree)
    rng = np.random.default_rng(0)
    position = tree.compute_position
    ends = [
        (position[f"v{i}"], position[f"v{j}"])
        for i in range(1, p + 1)
        for j in range(1, p + 1)
        if i != j
    ]
    counts = [int(rng.integers(1, 50)) for _ in ends]
    with cluster.round() as ctx:
        ctx.exchange_runs(
            *zip(*ends),
            counts,
            np.concatenate([np.arange(count) for count in counts]),
            tag="x",
        )
    pairs = verify_mpc_equivalence(cluster)
    print(
        "Random all-to-all round: topology-aware cost "
        f"{pairs[0][0]:.0f} == max-received {pairs[0][1]:.0f}  (Section 2.2)"
    )
    print()

    # Same algorithm, same traffic — different networks.
    dist_seed = 5
    uniform_star = repro.star(p, bandwidth=1.0, name="symmetric-star")
    slow_star = repro.star(
        p, bandwidth=[1.0] * (p - 1) + [0.25], name="one-slow-link"
    )
    dist = repro.random_distribution(
        uniform_star, r_size=3_000, s_size=3_000, seed=dist_seed
    )
    base = repro.uniform_hash_intersect(uniform_star, dist, seed=1)
    slow = repro.uniform_hash_intersect(slow_star, dist, seed=1)
    aware = repro.tree_intersect(slow_star, dist, seed=1)
    print("Uniform hash join, identical traffic, two networks:")
    print(f"  uniform star:          cost {base.cost:8.1f}")
    print(f"  one 4x-slower link:    cost {slow.cost:8.1f}   (MPC-blind)")
    print(f"  TreeIntersect, same net: cost {aware.cost:8.1f}   (topology-aware)")


if __name__ == "__main__":
    main()
