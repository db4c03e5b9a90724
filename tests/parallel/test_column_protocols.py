"""Every relation-at-a-time protocol, strictly audited on both substrates.

Array-source stream records reach three consumers besides the simulator's
own finalizer: the auditor's ``_expected_deliveries``, the process
backend's finalizer and ``LedgerOracle.replay_round``.  Each converted
protocol runs under a strict ``CostAuditor`` (conservation against the
raw streams, charges, round cost) on ``sim`` and on ``process`` with
``oracle=True`` (every round replayed on a shadow simulator and compared
load for load); no violation may be recorded and the two ledgers must be
identical.
"""

import numpy as np
import pytest

from repro.baselines.uniform_hash import (
    uniform_hash_equijoin,
    uniform_hash_groupby,
    uniform_hash_intersect,
)
from repro.core.intersection.tree import tree_intersect
from repro.core.sorting.wts import weighted_terasort
from repro.data.generators import random_distribution, random_tuple_distribution
from repro.obs.audit import auditing
from repro.parallel.pool import shutdown_pools
from repro.queries.aggregate import tree_groupby_aggregate
from repro.queries.join import tree_equijoin
from repro.sim.cluster import use_backend
from repro.topology.builders import two_level


@pytest.fixture(autouse=True, scope="module")
def _shared_pools():
    yield
    shutdown_pools()


TREE = two_level([3, 2, 3], leaf_bandwidth=2.0, uplink_bandwidth=[1.0, 2.0, 4.0])
SETS = random_distribution(TREE, r_size=300, s_size=500, policy="zipf", seed=5)
TUPLES = random_tuple_distribution(
    TREE, r_size=300, s_size=500, policy="zipf", seed=5
)

CASES = {
    "tree-intersect": (tree_intersect, SETS, {}),
    "tree-equijoin": (tree_equijoin, TUPLES, {"materialize": True}),
    "tree-groupby": (tree_groupby_aggregate, TUPLES, {"op": "min"}),
    "tree-groupby-raw": (
        tree_groupby_aggregate,
        TUPLES,
        {"op": "count", "pre_aggregate": False},
    ),
    "uniform-hash-intersect": (uniform_hash_intersect, SETS, {}),
    "uniform-hash-equijoin": (uniform_hash_equijoin, TUPLES, {}),
    "uniform-hash-groupby": (uniform_hash_groupby, TUPLES, {"op": "max"}),
    # no shortcut: all four rounds run, round 4 through exchange_column
    "wts": (weighted_terasort, SETS, {"gather_shortcut": False}),
}


def _audited(protocol, distribution, opts, backend, **backend_opts):
    with auditing(strict=True) as auditor:
        with use_backend(backend, **backend_opts):
            result = protocol(TREE, distribution, seed=4, **opts)
    assert auditor.violations == []
    assert auditor.rounds_checked >= result.rounds > 0
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_strict_audit_clean_and_ledgers_identical(name):
    protocol, distribution, opts = CASES[name]
    sim = _audited(protocol, distribution, opts, "sim")
    process = _audited(
        protocol, distribution, opts, "process", num_workers=2, oracle=True
    )
    if name == "wts":
        assert sim.meta["strategy"] == "wts" and sim.rounds == 4
    assert sim.rounds == process.rounds
    assert sim.cost == process.cost
    for index in range(sim.rounds):
        assert sim.ledger.round_loads(index) == process.ledger.round_loads(index)
    assert sim.outputs.keys() == process.outputs.keys()
    for node, output in sim.outputs.items():
        other = process.outputs[node]
        if isinstance(output, np.ndarray):
            assert np.array_equal(output, other)
        elif "pairs" in output:
            assert np.array_equal(output.pop("pairs"), other.pop("pairs"))
            assert output == other
        else:
            assert output == other
