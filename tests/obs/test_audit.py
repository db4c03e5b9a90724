"""Cost-model auditor: invariants on live rounds, violations on tampering."""

import numpy as np
import pytest

from repro.analysis.suites import ALL_SUITE_TASKS, standard_plans
from repro.data.generators import random_distribution
from repro.engine import run, run_many
from repro.errors import AuditError
from repro.obs.audit import (
    CostAuditor,
    NullAuditor,
    auditing,
    get_auditor,
)
from repro.obs.metrics import collecting
from repro.parallel.pool import shutdown_pools
from repro.registry import get_task
from repro.sim.cluster import Cluster
from tests.obs.shuffle import prepare_uniform_hash, rack_tree


@pytest.fixture(autouse=True, scope="module")
def _shared_pools():
    yield
    shutdown_pools()


def _audited_round(tree_size=2, elements=2_000):
    """One real bulk round, audited; returns (auditor, cluster, ctx)."""
    tree = rack_tree(tree_size)
    prepared = prepare_uniform_hash(tree, elements, 7)
    cluster = Cluster(tree)
    with auditing() as auditor:
        with cluster.round() as ctx:
            ctx.exchange_column(*prepared, tag="recv")
    return auditor, cluster, ctx


class TestCleanRounds:
    def test_real_round_has_no_violations(self):
        auditor, _, _ = _audited_round()
        assert auditor.rounds_checked == 1
        assert auditor.violations == []

    def test_full_table1_sweep_is_clean_under_strict_audit(self):
        plans = standard_plans(
            r_size=240, s_size=240, seed=1, tasks=ALL_SUITE_TASKS
        )
        with auditing(strict=True) as auditor:
            reports = run_many(plans)
        assert len(reports) == len(plans)
        summary = auditor.summary()
        assert summary["violations"] == 0
        assert summary["rounds_checked"] > len(plans)
        assert summary["bounds_checked"] > 0

    def test_process_backend_rounds_audited_clean(self):
        tree = rack_tree(4)
        dist = random_distribution(
            tree, r_size=400, s_size=400, policy="uniform", seed=3
        )
        with auditing(strict=True) as auditor:
            for task in (
                "set-intersection",
                "cartesian-product",
                "sorting",
            ):
                run(
                    task,
                    tree,
                    dist,
                    seed=1,
                    backend="process",
                    num_workers=2,
                )
        # the LedgerOracle replays every parallel round through a
        # shadow simulator round, so each run is audited on both the
        # parallel substrate and the replay
        assert auditor.summary()["violations"] == 0
        assert auditor.rounds_checked > 0


class TestViolationDetection:
    def test_conservation_violation_when_storage_delta_lies(self):
        auditor, cluster, ctx = _audited_round()
        # replay the check with the *post*-round sizes as the "before"
        # snapshot: every delivery now looks like it never landed
        after = auditor.before_round(cluster)
        auditor._check_conservation(cluster, ctx, after, "tampered")
        assert auditor.violations
        assert all(
            v["invariant"] == "conservation" for v in auditor.violations
        )

    def test_round_cost_violation_when_ledger_lies(self, monkeypatch):
        auditor, cluster, _ = _audited_round()
        monkeypatch.setattr(
            cluster.ledger, "round_cost", lambda index: 123456.0
        )
        auditor._check_charges(cluster, 0, "tampered")
        assert [v["invariant"] for v in auditor.violations] == ["round-cost"]

    def test_charge_violation_on_non_canonical_edge(self, monkeypatch):
        auditor, cluster, _ = _audited_round()
        node = cluster.compute_order[0]
        monkeypatch.setattr(
            cluster.ledger, "round_loads", lambda index: {(node, node): 5}
        )
        auditor._check_charges(cluster, 0, "tampered")
        assert "charge" in [v["invariant"] for v in auditor.violations]

    def test_charge_violation_on_negative_load(self, monkeypatch):
        auditor, cluster, _ = _audited_round()
        u, v = cluster.compute_order[0], cluster.compute_order[1]
        monkeypatch.setattr(
            cluster.ledger, "round_loads", lambda index: {(u, v): -3}
        )
        auditor._check_charges(cluster, 0, "tampered")
        assert "charge" in [x["invariant"] for x in auditor.violations]

    def test_strict_mode_raises_on_first_violation(self):
        auditor = CostAuditor(strict=True)
        with pytest.raises(AuditError, match=r"\[conservation\]"):
            auditor._violation("conservation", "synthetic")
        assert len(auditor.violations) == 1

    def test_violations_counted_on_metrics_registry(self):
        with collecting() as registry:
            auditor = CostAuditor()
            auditor._violation("charge", "synthetic")
            auditor._violation("charge", "synthetic again")
        counters = registry.snapshot()["counters"]
        assert counters["repro_audit_violations_total"] == {
            "invariant=charge": 2
        }


class TestBoundChecks:
    def test_beating_a_worst_case_bound_is_a_metric_not_a_violation(self):
        with collecting() as registry:
            auditor = CostAuditor(strict=True)
            auditor.check_bound(
                cost=10.0,
                bound=88.0,
                task="set-intersection",
                protocol="tree-intersect",
                per_instance=False,
            )
        assert auditor.violations == []
        counters = registry.snapshot()["counters"]
        assert counters["repro_bound_beats_total"] == {
            "task=set-intersection": 1
        }

    def test_beating_an_instance_valid_bound_is_a_violation(self):
        auditor = CostAuditor()
        auditor.check_bound(
            cost=10.0,
            bound=88.0,
            task="connected-components",
            protocol="tree-components",
            per_instance=True,
        )
        assert [v["invariant"] for v in auditor.violations] == [
            "lower-bound"
        ]

    def test_meeting_the_bound_is_clean_either_way(self):
        auditor = CostAuditor(strict=True)
        for per_instance in (False, True):
            auditor.check_bound(
                cost=88.0,
                bound=88.0,
                task="sorting",
                protocol="wts",
                per_instance=per_instance,
            )
        assert auditor.violations == []

    def test_graph_tasks_declare_instance_valid_bounds(self):
        assert get_task("connected-components").bound_holds_per_instance
        assert get_task("triangle-count").bound_holds_per_instance
        # the paper's Theorem 1-3 bounds are worst-case: adaptive
        # protocols may legitimately undercut them on easy instances
        assert not get_task("set-intersection").bound_holds_per_instance
        assert not get_task("sorting").bound_holds_per_instance


class TestInstallation:
    def test_default_auditor_is_null_and_inert(self):
        auditor = get_auditor()
        assert isinstance(auditor, NullAuditor)
        assert auditor.enabled is False
        assert auditor.before_round(None) is None
        auditor.check_round(None, None, None)
        auditor.check_bound(
            cost=0.0, bound=1.0, task="x", protocol="y", per_instance=True
        )

    def test_summary_groups_by_invariant(self):
        auditor = CostAuditor()
        auditor._violation("charge", "a")
        auditor._violation("charge", "b")
        auditor._violation("round-cost", "c")
        summary = auditor.summary()
        assert summary["violations"] == 3
        assert summary["by_invariant"] == {"charge": 2, "round-cost": 1}


class TestExpectedDeliveries:
    def test_reference_expansion_counts_multicast_fanout(self):
        tree = rack_tree(2)
        cluster = Cluster(tree)
        leaves = [n for n in cluster.compute_order]
        with auditing() as auditor:
            with cluster.round() as ctx:
                ctx.exchange_column(
                    np.array([0, 0, 0]),
                    np.array([1, 1, 2]),
                    np.array([10, 20, 30], dtype=np.int64),
                    tag="uni",
                )
                ctx.multicast(
                    leaves[1],
                    [leaves[2], leaves[3]],
                    np.array([7, 8], dtype=np.int64),
                    tag="multi",
                )
        assert auditor.violations == []
        assert cluster.local_size(leaves[1], "uni") == 2
        assert cluster.local_size(leaves[2], "multi") == 2
        assert cluster.local_size(leaves[3], "multi") == 2
