"""Negative-path test for the Section 2.2 equivalence checker."""

import numpy as np
import pytest

from repro.mpc import verify_mpc_equivalence
from repro.sim.cluster import Cluster
from repro.topology.builders import star


class TestEquivalenceChecker:
    def test_rejects_non_mpc_star(self):
        # On a symmetric star the uplinks also carry cost, so the
        # round cost exceeds the max-received measure and the checker
        # must flag the discrepancy... unless traffic is symmetric.
        tree = star(3, bandwidth=[1.0, 1.0, 4.0])
        cluster = Cluster(tree)
        with cluster.round() as ctx:
            # v1 sends a lot (slow uplink), v3 receives little relative
            # to its fast downlink: cost is dominated by v1's uplink,
            # which max-received cannot see.  (v1 -> v3, nodes by
            # compute-order index)
            ctx.exchange_runs([0], [2], [100], np.arange(100), tag="x")
        with pytest.raises(AssertionError):
            verify_mpc_equivalence(cluster)

    def test_accepts_empty_rounds(self):
        from repro.mpc import mpc_star

        cluster = Cluster(mpc_star(3))
        with cluster.round():
            pass
        assert verify_mpc_equivalence(cluster) == [(0.0, 0.0)]
