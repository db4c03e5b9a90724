"""Count guards: a plan stage is a constant number of array operations.

No wall-clock asserts.  A warm chain-3 ``session.run_plan`` must not
sort nodes, must pack each join input once, and must write to the store
a number of times that does not depend on how many compute nodes the
tree has; ``Cluster.column`` of a loaded relation must not copy it.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

import repro
from repro.data.distribution import Distribution
from repro.plan import Schema, chain_catalog, chain_query
from repro.sim.cluster import Cluster
from repro.sim.storage import ColumnarStore
from repro.topology import tree as tree_module


def warm_session(racks):
    tree = repro.two_level(racks, leaf_bandwidth=2, uplink_bandwidth=4)
    session = repro.EngineSession(tree)
    catalog = chain_catalog(
        tree, num_relations=3, rows=200, key_space=1024, seed=1, policy="zipf"
    )
    report = session.run_plan(chain_query(3), catalog, seed=1)
    assert len(report.stages) == 2
    return session, catalog


def count_method_calls(monkeypatch, owner, name) -> list:
    calls = []
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_warm_plan_never_sorts_nodes():
    session, catalog = warm_session([12] * 12)
    code = tree_module.node_sort_key.__code__
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(profiler)
    try:
        session.run_plan(chain_query(3), catalog, seed=1)
    finally:
        sys.setprofile(None)
    assert calls == 0


def test_each_join_input_is_packed_once(monkeypatch):
    session, catalog = warm_session([12] * 12)
    packs = count_method_calls(monkeypatch, Schema, "pack")
    report = session.run_plan(chain_query(3), catalog, seed=1)
    assert 0 < len(packs) <= 2 * len(report.stages)


def test_store_writes_do_not_grow_with_the_tree(monkeypatch):
    writes = []
    for racks in ([4] * 4, [12] * 12):
        session, catalog = warm_session(racks)
        with monkeypatch.context() as patch:
            calls = count_method_calls(patch, ColumnarStore, "install")
            session.run_plan(chain_query(3), catalog, seed=1)
        writes.append(len(calls))
    assert writes[0] == writes[1] > 0


def test_column_of_a_loaded_relation_copies_nothing():
    tree = repro.two_level([4] * 4)
    nodes = tree.compute_nodes
    values = np.arange(400_000, dtype=np.int64)
    offsets = np.arange(len(nodes) + 1) * (len(values) // len(nodes))
    cluster = Cluster(
        tree, Distribution.from_columns(nodes, {"R": (values, offsets)})
    )
    cluster.column("R")  # the owners vector is built once per table
    tracemalloc.start()
    try:
        owners, column = cluster.column("R")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.shares_memory(column, values)
    assert owners[0] == 0 and owners[-1] == len(nodes) - 1
    with pytest.raises(ValueError):
        column[0] = 1
