"""The ``--racks`` tree and a prepared uniform-hash shuffle round on it.

Target assignment and local data are computed up front, so a test
drives (and times) only the round itself::

    tree = rack_tree(4)
    with cluster.round() as ctx:
        ctx.exchange_column(*prepare_uniform_hash(tree, 2_000, 7), tag="recv")
"""

from repro.data.generators import random_distribution
from repro.sim.cluster import Cluster
from repro.topology.builders import two_level
from repro.topology.tree import TreeTopology
from repro.util.hashing import WeightedNodeHasher
from repro.util.seeding import derive_seed


def rack_tree(racks: int) -> TreeTopology:
    """``racks`` racks of ``racks`` leaves, the CLI's ``--racks`` tree."""
    return two_level(
        [racks] * racks,
        leaf_bandwidth=2.0,
        uplink_bandwidth=4.0,
        name=f"fat-tree({racks}x{racks})",
    )


def prepare_uniform_hash(
    tree: TreeTopology, num_elements: int, seed: int
) -> tuple:
    """``(sources, targets, values)``: a relation's column and each
    element's hashed target, as compute-order indices."""
    distribution = random_distribution(
        tree,
        r_size=num_elements,
        s_size=0,
        policy="proportional",
        seed=seed,
    )
    cluster = Cluster(tree, distribution)
    computes = cluster.compute_order
    hasher = WeightedNodeHasher(
        computes, [1.0] * len(computes), derive_seed(seed, "bench-speed")
    )
    owners, values = cluster.column("R")
    return owners, hasher.assign_indices(values), values
