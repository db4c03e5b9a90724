"""Topology-agnostic baselines the paper's algorithms are compared against.

These are the strategies a classic MPC system would use — uniform hash
partitioning for joins [7], the unweighted HyperCube for cartesian
products [1], TeraSort with one splitter interval per node [41], and,
for the relational operators the planner compiles, the trivial
gather-everything strategy.  On the uniform MPC star they match the
topology-aware algorithms; on heterogeneous trees and skewed placements
the benchmarks show where and by how much they lose.
"""

from repro.baselines.uniform_hash import (
    uniform_hash_equijoin,
    uniform_hash_groupby,
    uniform_hash_intersect,
)
from repro.baselines.hypercube import classic_hypercube_cartesian_product
from repro.baselines.gather import gather_equijoin, gather_groupby
from repro.core.sorting.terasort import terasort as classic_terasort

__all__ = [
    "uniform_hash_intersect",
    "uniform_hash_equijoin",
    "uniform_hash_groupby",
    "gather_equijoin",
    "gather_groupby",
    "classic_hypercube_cartesian_product",
    "classic_terasort",
]
