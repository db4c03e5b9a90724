"""Tests for the MPC special case (Section 2.2)."""

import numpy as np
import pytest

from repro.baselines.uniform_hash import uniform_hash_intersect
from repro.data.generators import make_sort_input
from repro.mpc import mpc_star, mpc_uniform_distribution, verify_mpc_equivalence
from repro.sim.cluster import Cluster


class TestMpcStar:
    def test_round_cost_equals_max_received(self):
        tree = mpc_star(4)
        cluster = Cluster(tree)
        with cluster.round() as ctx:
            # v1 -> v2, v3 -> v2 and v2 -> v4, nodes by compute-order index
            ctx.exchange_runs(
                [0, 2, 1],
                [1, 1, 3],
                [10, 5, 3],
                np.concatenate([np.arange(10), np.arange(5), np.arange(3)]),
                tag="x",
            )
        pairs = verify_mpc_equivalence(cluster)
        assert pairs == [(15.0, 15.0)]  # v2 received 15 elements

    def test_sending_is_free(self):
        tree = mpc_star(3)
        cluster = Cluster(tree)
        with cluster.round() as ctx:
            # one sender fanning out: each receiver gets little, cost small
            # (v1 -> v2 and v1 -> v3, nodes by compute-order index)
            ctx.exchange_runs(
                [0, 0], [1, 2], [100, 100], np.tile(np.arange(100), 2), tag="x"
            )
        assert cluster.ledger.round_cost(0) == 100.0

    def test_uniform_distribution(self):
        tree = mpc_star(4)
        values = make_sort_input(100, seed=0)
        dist = mpc_uniform_distribution(tree, values)
        assert sorted(dist.sizes("R").values()) == [25, 25, 25, 25]

    def test_uniform_hash_join_on_mpc_star(self):
        # The classic MPC hash join runs unchanged on the MPC star and
        # its model cost is the max-received measure.
        from repro.data.generators import random_distribution

        tree = mpc_star(4)
        dist = random_distribution(tree, r_size=200, s_size=200, seed=1)
        result = uniform_hash_intersect(tree, dist, seed=0)
        expected = set(
            np.intersect1d(dist.relation("R"), dist.relation("S")).tolist()
        )
        found: set = set()
        for values in result.outputs.values():
            found |= set(values.tolist())
        assert found == expected
        # cost ~ N/p with p=4, N=400: each node receives about 100
        assert 60 <= result.cost <= 160
