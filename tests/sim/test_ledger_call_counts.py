"""Count guards: a round's charge and a bound are array operations.

No wall-clock asserts.  On a warm session one ``set-intersection``, one
``sorting`` and one ``groupby-aggregate`` run must charge and cost their
rounds without a ``tree.bandwidth`` lookup, compute their bounds without
a per-node ``Distribution.size`` call, cost every round at most once,
and make a number of Python-level ledger calls that does not depend on
how many links the tree has.
"""

from __future__ import annotations

import sys

import repro
from repro.data.distribution import Distribution
from repro.sim import ledger as ledger_module
from repro.sim.ledger import CostLedger
from repro.topology.tree import TreeTopology

TASKS = ("set-intersection", "sorting", "groupby-aggregate")


def warm_session(racks):
    """A session that has run every task once, and the inputs it ran on."""
    tree = repro.two_level(racks, leaf_bandwidth=2, uplink_bandwidth=4)
    session = repro.EngineSession(tree)
    inputs = {
        "set-intersection": repro.random_distribution(
            tree, r_size=300, s_size=600, policy="zipf", seed=3
        ),
        "sorting": repro.random_distribution(tree, r_size=600, s_size=0, seed=4),
        "groupby-aggregate": repro.random_tuple_distribution(
            tree, r_size=600, s_size=0, key_space=50, seed=5
        ),
    }
    run_all(session, inputs)
    return session, inputs


def run_all(session, inputs) -> list:
    return [session.run(task, inputs[task], seed=1) for task in TASKS]


def callers_of(monkeypatch, owner, name) -> list:
    """Every call of ``owner.name`` from now on, as the caller's
    ``file name:function name``."""
    callers = []
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        code = sys._getframe(1).f_code
        callers.append(f"{code.co_filename}:{code.co_name}")
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return callers


def test_no_bandwidth_lookup_from_the_ledger_or_the_kernels(monkeypatch):
    session, inputs = warm_session([12] * 12)
    callers = callers_of(monkeypatch, TreeTopology, "bandwidth")
    reports = run_all(session, inputs)
    assert all(report.rounds > 0 and report.cost > 0 for report in reports)
    assert not [
        name
        for name in callers
        if "sim/ledger.py:" in name or "topology/steiner.py:" in name
    ]


def test_no_per_node_size_call_from_a_bound(monkeypatch):
    session, inputs = warm_session([12] * 12)
    callers = callers_of(monkeypatch, Distribution, "size")
    reports = run_all(session, inputs)
    assert all(report.lower_bound > 0 for report in reports)
    # a bound lives in a ``lower_bound*`` module or function, on the
    # constructors of ``core/common.py``
    assert not [
        name for name in callers if "lower_bound" in name or "core/common.py:" in name
    ]


def test_every_round_is_costed_at_most_once(monkeypatch):
    session, inputs = warm_session([12] * 12)
    costed = callers_of(monkeypatch, CostLedger, "_cost_of")
    reports = run_all(session, inputs)
    assert 0 < len(costed) <= sum(report.rounds for report in reports)


def test_ledger_calls_do_not_grow_with_the_tree():
    code_file = ledger_module.__file__
    calls, rounds = [], []
    for racks in ([4] * 4, [12] * 12):
        session, inputs = warm_session(racks)
        count = 0

        def profiler(frame, event, arg):
            nonlocal count
            count += event == "call" and frame.f_code.co_filename == code_file

        sys.setprofile(profiler)
        try:
            reports = run_all(session, inputs)
        finally:
            sys.setprofile(None)
        calls.append(count)
        rounds.append([report.rounds for report in reports])
    assert rounds[0] == rounds[1]
    assert calls[0] == calls[1] > 0
