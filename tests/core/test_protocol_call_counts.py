"""Count guard: the serving path's protocols rank and size nodes as arrays.

No wall-clock asserts.  On a warm session, one op each of the four
serving tasks must make no ``node_sort_key`` call and no per-node
``Distribution.size`` call from protocol code (``core/``,
``queries/``): nodes are ranked by the routing index, whose node list is
in ``node_sort_key`` order, and sized by one ``Distribution.sizes_over``
vector.
"""

from __future__ import annotations

import os
import sys

import repro
from repro.data.distribution import Distribution
from repro.topology.tree import node_sort_key

TASKS = ("set-intersection", "equijoin", "groupby-aggregate", "sorting")
PROTOCOL_DIRS = (os.sep + "core" + os.sep, os.sep + "queries" + os.sep)


def warm_session():
    tree = repro.two_level([12] * 12, leaf_bandwidth=2, uplink_bandwidth=4)
    session = repro.EngineSession(tree)
    sets = repro.random_distribution(tree, r_size=300, s_size=600, policy="zipf", seed=3)
    tuples = repro.random_tuple_distribution(
        tree, r_size=300, s_size=600, key_space=50, policy="zipf", seed=4
    )
    inputs = {
        "set-intersection": sets,
        "equijoin": tuples,
        "groupby-aggregate": tuples,
        "sorting": sets,
    }
    for task in TASKS:
        session.run(task, inputs[task], seed=1)
    return session, inputs


def test_no_sort_key_or_size_call_from_protocol_code():
    session, inputs = warm_session()
    watched = {node_sort_key.__code__: "node_sort_key", Distribution.size.__code__: "size"}
    callers = []

    def profiler(frame, event, arg):
        name = watched.get(frame.f_code) if event == "call" else None
        if name is not None:
            callers.append((name, frame.f_back.f_code.co_filename))

    sys.setprofile(profiler)
    try:
        reports = [session.run(task, inputs[task], seed=1) for task in TASKS]
    finally:
        sys.setprofile(None)
    assert all(report.rounds > 0 for report in reports)
    assert [
        (name, path)
        for name, path in callers
        if any(part in path for part in PROTOCOL_DIRS)
    ] == []
