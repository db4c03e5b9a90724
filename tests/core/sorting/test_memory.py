"""Peak traced memory of a sort at 2 048 leaves.

Nothing either sort allocates may grow with nodes × nodes: the scatter
registers only its non-empty runs and the light nodes' quotas take one
pass, so 2·10⁵ elements stay within a few copies of the data (measured
on x86-64: TeraSort about 22 MiB, wTS about 12 MiB; a `(nodes, nodes)`
count matrix alone is 32 MiB here).
"""

import tracemalloc

import pytest

import repro
from repro.core.sorting.terasort import terasort
from repro.core.sorting.wts import weighted_terasort


@pytest.fixture(scope="module")
def instance():
    tree = repro.two_level([64] * 32, leaf_bandwidth=2.0, uplink_bandwidth=4.0)
    return tree, repro.random_distribution(
        tree, r_size=200_000, s_size=0, policy="zipf", seed=1
    )


@pytest.mark.parametrize(
    "protocol, limit_mib", [(terasort, 40), (weighted_terasort, 24)]
)
def test_peak_under_limit(instance, protocol, limit_mib):
    tree, distribution = instance
    protocol(tree, distribution, seed=1)  # tree artifacts are built once
    tracemalloc.start()
    try:
        protocol(tree, distribution, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < limit_mib
