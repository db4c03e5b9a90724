"""A cost-model auditor: Section-2 invariants checked on live rounds.

The ledger *claims* every round obeys the paper's cost model; this
module re-derives the claims from independent evidence and compares.
Installed via :func:`auditing`, a :class:`CostAuditor` hooks into
:meth:`Cluster.round <repro.sim.cluster.Cluster.round>` and checks,
after every finalized round:

``conservation``
    Elements registered for each ``(destination, tag)`` — re-expanded
    from the round's raw transfer streams with a reference
    implementation, not the grouped fast path — equal the elements
    that actually landed in that node's storage (before/after size
    delta).
``round-cost``
    The ledger's ``round_cost`` equals ``max_e load(e) / w_e``
    recomputed from the round's raw per-edge loads and the topology's
    link widths.
``charge``
    Every per-edge charge is a non-negative integer on a real directed
    tree edge (canonical node identity — no aliased duplicates).
``lower-bound``
    (Engine-level, via :meth:`CostAuditor.check_bound`.)  The reported
    cost is at least the registered lower bound whenever the task
    declares its bound instance-valid
    (``TaskSpec.bound_holds_per_instance``); beating a worst-case
    bound is legitimate and is only counted as
    ``repro_bound_beats_total``.

Every violation is one small ``audit`` span (``invariant``,
``violations=1``), which the metrics registry folds into
``repro_audit_violations_total{invariant=...}``, and is accumulated on
the auditor; in strict mode the first violation raises
:class:`~repro.errors.AuditError`.  A query sent to a pool worker
(``run_many(workers=n)``, ``run(backend="process")``) runs
there from the default context, unaudited.

The default auditor is :class:`NullAuditor`: one run-context read per
round, no snapshots, no checks — the same disabled-path
contract as ``NullTracer``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.context import current, use
from repro.errors import AuditError
from repro.obs.tracer import mark
from repro.util.grouping import sorted_unique

#: Tolerance for float comparisons (round costs are ratios of integer
#: loads over float widths; re-deriving them must match to rounding).
COST_EPSILON = 1e-9


class NullAuditor:
    """The default auditor: checks nothing, snapshots nothing."""

    enabled = False
    strict = False

    def before_round(self, cluster) -> None:
        return None

    def check_round(self, cluster, context, before) -> None:
        pass

    def check_bound(
        self, *, cost, bound, task, protocol, per_instance=False
    ) -> None:
        pass


class CostAuditor:
    """Re-derives and checks the cost-model invariants per round."""

    enabled = True

    def __init__(self, *, strict: bool = False) -> None:
        self.strict = strict
        self.violations: list[dict] = []
        self.rounds_checked = 0
        self.bounds_checked = 0

    # ------------------------------------------------------------------ #
    # round hooks (called by Cluster.round)
    # ------------------------------------------------------------------ #

    def before_round(self, cluster) -> dict:
        """Snapshot per-(node, tag) storage sizes before the round runs.

        Column lengths are maintained incrementally by the store, so
        this is a dict walk — no chunk traversal, no compaction.
        """
        return cluster._storage.sizes()

    def check_round(self, cluster, context, before: dict) -> None:
        """Audit one finalized round against its raw transfer streams."""
        self.rounds_checked += 1
        index = cluster.ledger.num_rounds - 1
        where = f"round {index} on {cluster.tree.name!r}"
        self._check_conservation(cluster, context, before, where)
        self._check_charges(cluster, index, where)

    def check_bound(
        self, *, cost, bound, task, protocol, per_instance=False
    ) -> None:
        """Reported cost must not beat an instance-valid lower bound.

        ``per_instance`` is the task's
        ``bound_holds_per_instance`` declaration: only bounds that hold
        for every input can be violated by a cheaper run.  Beating a
        worst-case bound (the paper's Theorems 1–3) is legitimate
        instance-adaptivity — recorded as
        ``repro_bound_beats_total{task}``, never as a violation.
        """
        self.bounds_checked += 1
        if cost >= bound - COST_EPSILON:
            return
        if per_instance:
            self._violation(
                "lower-bound",
                f"{task}/{protocol}: reported cost {cost!r} is below "
                f"the instance-valid lower bound {bound!r}",
            )
        else:
            mark("audit.bound", "audit", task=task, bound_beats=1)

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #

    def _check_conservation(
        self, cluster, context, before: dict, where: str
    ) -> None:
        """Registered elements per (dst, tag) == storage arrivals."""
        expected = _expected_deliveries(cluster, context)
        for (node, tag), count in expected.items():
            held_before = before.get(node, {}).get(tag, 0)
            delta = cluster.local_size(node, tag) - held_before
            if delta != count:
                self._violation(
                    "conservation",
                    f"{where}: node {node!r} tag {tag!r} was sent "
                    f"{count} element(s) but storage grew by {delta}",
                )

    def _check_charges(self, cluster, index: int, where: str) -> None:
        """Charges are canonical non-negative loads; cost is their max."""
        tree = cluster.tree
        loads = cluster.ledger.round_loads(index)
        expected_cost = 0.0
        for edge, count in loads.items():
            u, v = edge
            if count < 0 or count != int(count):
                self._violation(
                    "charge",
                    f"{where}: edge {edge!r} carries a non-integral or "
                    f"negative load {count!r}",
                )
                continue
            if u == v or u not in tree.nodes or v not in tree.nodes:
                self._violation(
                    "charge",
                    f"{where}: charged edge {edge!r} is not a canonical "
                    "directed tree edge",
                )
                continue
            try:
                width = tree.bandwidth(u, v)
            except Exception:
                self._violation(
                    "charge",
                    f"{where}: charged edge {edge!r} does not exist in "
                    "the topology",
                )
                continue
            expected_cost = max(expected_cost, count / width)
        reported = cluster.ledger.round_cost(index)
        if abs(reported - expected_cost) > COST_EPSILON:
            self._violation(
                "round-cost",
                f"{where}: ledger reports round cost {reported!r} but "
                f"max_e load/width over the raw loads is "
                f"{expected_cost!r}",
            )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def _violation(self, invariant: str, detail: str) -> None:
        self.violations.append({"invariant": invariant, "detail": detail})
        mark(
            f"audit {invariant}", "audit", invariant=invariant, violations=1
        )
        if self.strict:
            raise AuditError(f"[{invariant}] {detail}")

    def summary(self) -> dict:
        """Compact audit outcome for reports and CLI output."""
        by_invariant: dict[str, int] = {}
        for violation in self.violations:
            name = violation["invariant"]
            by_invariant[name] = by_invariant.get(name, 0) + 1
        return {
            "rounds_checked": self.rounds_checked,
            "bounds_checked": self.bounds_checked,
            "violations": len(self.violations),
            "by_invariant": by_invariant,
        }


def _expected_deliveries(cluster, context) -> dict:
    """Reference expansion of a round's streams into per-(dst, tag) counts.

    Walks the raw unicast/multicast records one at a time,
    independently of the grouped finalizers whose deliveries it
    audits.
    """
    expected: dict[tuple, int] = {}

    def _add(node, tag: str, count: int) -> None:
        if count:
            key = (node, tag)
            expected[key] = expected.get(key, 0) + count

    order = cluster.compute_order
    for _sources, targets, counts, _payload, tag in context._unicast_stream:
        # a per-element record names one target per element, a run
        # record one per run of ``counts`` elements
        arrivals = np.zeros(len(order), dtype=np.int64)
        np.add.at(arrivals, targets, 1 if counts is None else counts)
        for position in np.flatnonzero(arrivals).tolist():
            _add(order[position], tag, int(arrivals[position]))
    for _origins, members, offsets, group_ids, _payload, tag in (
        context._multicasts
    ):
        # one delivery per distinct (group, member) pair
        groups = len(offsets) - 1
        pairs = sorted_unique(
            np.repeat(np.arange(groups), np.diff(offsets)) * len(order)
            + members
        )
        counts = np.bincount(group_ids, minlength=groups)
        arrivals = np.zeros(len(order), dtype=np.int64)
        np.add.at(arrivals, pairs % len(order), counts[pairs // len(order)])
        for position in np.flatnonzero(arrivals).tolist():
            _add(order[position], tag, int(arrivals[position]))
    return expected


def get_auditor():
    """The auditor of this thread's run context (no-op by default)."""
    return current().auditor


@contextmanager
def auditing(*, strict: bool = False) -> Iterator[CostAuditor]:
    """Audit every round within the block; yields the auditor."""
    auditor = CostAuditor(strict=strict)
    with use(auditor=auditor):
        yield auditor
