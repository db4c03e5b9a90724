"""Network topology substrate (Section 2 of the paper).

The model represents the network as a directed graph with per-edge
bandwidths; a distinguished subset of nodes are *compute* nodes that can
store data and compute, while the remaining nodes only route.  This
package implements the tree-structured topologies the paper's results are
about, together with the w.l.o.g. normalizations of Section 2.1, the
oriented graph G-dagger of Section 4.1, and the routing kernels the
simulator charges through.
"""

from repro.topology.tree import TreeTopology, NodeId, UndirectedEdge, DirectedEdge
from repro.topology.builders import (
    caterpillar,
    fat_tree,
    from_parent_map,
    mpc_star,
    random_tree,
    star,
    two_level,
)
from repro.topology.normalize import (
    NormalizedTopology,
    ensure_compute_leaves,
    normalize,
    suppress_degree_two,
)
from repro.topology.dagger import Dagger, build_dagger, minimal_covers, optimal_cover
from repro.topology.steiner import PathOracle
from repro.topology.render import ascii_tree

__all__ = [
    "TreeTopology",
    "NodeId",
    "UndirectedEdge",
    "DirectedEdge",
    "star",
    "mpc_star",
    "two_level",
    "fat_tree",
    "caterpillar",
    "random_tree",
    "from_parent_map",
    "NormalizedTopology",
    "normalize",
    "ensure_compute_leaves",
    "suppress_degree_two",
    "Dagger",
    "build_dagger",
    "optimal_cover",
    "minimal_covers",
    "PathOracle",
    "ascii_tree",
]
