"""Unit tests for the columnar storage layer (ColumnarStore).

The load-bearing contracts: installs reference arrays without copying,
reads are read-only zero-copy views (the single-chunk aliasing case is
the regression this file pins down), compaction is lazy, cached, and
counted, and sizes are maintained incrementally.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import collecting
from repro.sim.storage import ColumnarStore
from repro.topology.builders import star
from repro.sim.cluster import Cluster
from tests.cluster_storage import put


NODES = ("v1", "v2")


def _put(store, node, tag: str, chunk: np.ndarray) -> None:
    """``chunk`` at the end of ``node``'s column: a one-stretch table."""
    owner = np.array([store._position[node]])
    store.install(tag, owner, np.array([0]), np.array([len(chunk)]), chunk)


class TestColumnarStore:
    def test_view_of_empty_column_is_empty_readonly(self):
        store = ColumnarStore(NODES)
        view = store.view("v1", "R")
        assert len(view) == 0
        assert not view.flags.writeable

    def test_single_chunk_view_aliases_the_chunk(self):
        # the zero-copy contract: a single-chunk column is served as a
        # direct view of the delivered array, no concatenate, no copy
        store = ColumnarStore(NODES)
        chunk = np.arange(5, dtype=np.int64)
        _put(store, "v1", "R", chunk)
        view = store.view("v1", "R")
        assert np.shares_memory(view, chunk)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 99

    def test_multi_chunk_view_compacts_once_and_caches(self):
        store = ColumnarStore(NODES)
        _put(store, "v1", "R", np.arange(3, dtype=np.int64))
        _put(store, "v1", "R", np.arange(3, 6, dtype=np.int64))
        assert store.chunk_count("v1", "R") == 2
        first = store.view("v1", "R")
        assert first.tolist() == [0, 1, 2, 3, 4, 5]
        assert store.chunk_count("v1", "R") == 1
        # repeated reads return the same cached object
        assert store.view("v1", "R") is first

    def test_a_write_invalidates_the_cached_view(self):
        store = ColumnarStore(NODES)
        _put(store, "v1", "R", np.arange(2, dtype=np.int64))
        before = store.view("v1", "R")
        _put(store, "v1", "R", np.arange(2, 4, dtype=np.int64))
        after = store.view("v1", "R")
        assert after is not before
        assert after.tolist() == [0, 1, 2, 3]

    def test_compactions_are_counted_per_tag(self):
        store = ColumnarStore(NODES)
        with collecting() as registry:
            _put(store, "v1", "R", np.arange(2, dtype=np.int64))
            _put(store, "v1", "R", np.arange(2, dtype=np.int64))
            store.view("v1", "R")  # multi-chunk: counts
            store.view("v1", "R")  # cached: does not count
            _put(store, "v2", "R", np.arange(2, dtype=np.int64))
            store.view("v2", "R")  # single-chunk: does not count
        counters = registry.snapshot()["counters"]
        assert counters["repro_storage_compactions_total"] == {"tag=R": 1}

    def test_sizes_are_incremental(self):
        store = ColumnarStore(NODES)
        _put(store, "v1", "R", np.arange(3, dtype=np.int64))
        _put(store, "v1", "R", np.arange(4, dtype=np.int64))
        _put(store, "v1", "S", np.arange(2, dtype=np.int64))
        assert store.size("v1", "R") == 7
        assert store.size("v1") == 9
        assert store.sizes() == {"v1": {"R": 7, "S": 2}}

    def test_pop_removes_and_returns_readonly(self):
        store = ColumnarStore(NODES)
        _put(store, "v1", "R", np.arange(3, dtype=np.int64))
        values = store.pop("v1", "R")
        assert values.tolist() == [0, 1, 2]
        assert not values.flags.writeable
        assert store.size("v1", "R") == 0
        assert len(store.view("v1", "R")) == 0

    def test_discard(self):
        store = ColumnarStore(NODES)
        _put(store, "v1", "R", np.arange(3, dtype=np.int64))
        _put(store, "v2", "S", np.arange(2, dtype=np.int64))
        store.discard("v1", "R")
        assert store.size("v1", "R") == 0
        store.discard("ghost", "R")  # no-op
        assert store.sizes() == {"v2": {"S": 2}}

    def test_tags_and_nodes(self):
        store = ColumnarStore(NODES)
        _put(store, "v1", "R", np.arange(1, dtype=np.int64))
        _put(store, "v1", "S", np.arange(1, dtype=np.int64))
        assert store.tags("v1") == frozenset({"R", "S"})
        assert store.tags("ghost") == frozenset()
        assert set(store.nodes()) == {"v1"}


class TestClusterAliasing:
    """The single-chunk aliasing regression at the cluster surface."""

    def test_local_of_stored_array_is_readonly_alias(self):
        # storage references the caller's array; local() serves it back as
        # a writeable=False view — a protocol mutating the return value
        # must raise instead of silently rewriting storage
        tree = star(3)
        cluster = Cluster(tree)
        original = np.arange(10, dtype=np.int64)
        put(cluster, "v1", "R", original)
        local = cluster.local("v1", "R")
        assert np.shares_memory(local, original)
        assert not local.flags.writeable
        with pytest.raises(ValueError):
            local[0] = -1
        assert cluster.local("v1", "R").tolist() == list(range(10))

    def test_take_returns_readonly(self):
        tree = star(3)
        cluster = Cluster(tree)
        put(cluster, "v1", "R", np.arange(4, dtype=np.int64))
        taken = cluster.take("v1", "R")
        assert not taken.flags.writeable
        assert cluster.local_size("v1", "R") == 0


def _table(owners, lengths, first=0):
    """A column-shaped table: ``(owners, starts, ends, values)``."""
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    values = np.arange(first, first + int(lengths.sum()), dtype=np.int64)
    return np.asarray(owners, dtype=np.intp), ends - lengths, ends, values


def _python_calls(function) -> int:
    """How many Python-level calls ``function()`` makes."""
    import sys

    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


class TestTableContract:
    """The store contract stated at the top of ``sim/storage.py``."""

    def test_install_runs_no_per_node_python(self):
        counts = []
        for nodes in (16, 4096):
            store = ColumnarStore(range(nodes))
            table = _table(range(nodes), [3] * nodes)
            counts.append(_python_calls(lambda: store.install("R", *table)))
        assert counts[0] == counts[1]

    def test_view_of_a_table_segment_is_a_zero_copy_slice(self):
        store = ColumnarStore(["a", "b", "c"])
        owners, starts, ends, values = _table([0, 2], [2, 3])
        store.install("R", owners, starts, ends, values)
        view = store.view("c", "R")
        assert view.tolist() == [2, 3, 4]
        assert np.shares_memory(view, values) and not view.flags.writeable
        assert store.view("c", "R") is view
        assert len(store.view("b", "R")) == 0
        assert store.chunk_count("c", "R") == 1

    def test_empty_stretches_install_nothing(self):
        store = ColumnarStore(["a", "b"])
        store.install("R", *_table([0, 1], [0, 2]))
        assert store.sizes() == {"b": {"R": 2}}
        assert store.tags("a") == frozenset()

    def test_column_of_one_table_is_the_table(self):
        store = ColumnarStore(["a", "b", "c"])
        owners, starts, ends, values = _table([0, 2], [2, 3])
        store.install("R", owners, starts, ends, values)
        column_owners, column = store.column("R")
        assert np.shares_memory(column, values) and len(column) == len(values)
        assert column_owners.tolist() == [0, 0, 2, 2, 2]
        assert not column.flags.writeable and not column_owners.flags.writeable
        again_owners, again = store.column("R")
        assert again_owners is column_owners and np.shares_memory(again, values)

    def test_column_merges_tables_and_chunks_in_arrival_order(self):
        # the unicast-then-multicast round shape: a table, per-node
        # one-stretch tables, another table — each node's pieces in arrival order
        store = ColumnarStore(["a", "b", "c"])
        store.install("R", *_table([0, 1], [2, 1]))  # a: 0 1, b: 2
        _put(store, "b", "R", np.array([10], dtype=np.int64))
        _put(store, "c", "R", np.array([11, 12], dtype=np.int64))
        store.install("R", *_table([1, 2], [1, 1], first=20))  # b: 20, c: 21
        with collecting() as registry:
            owners, values = store.column("R")
        assert values.tolist() == [0, 1, 2, 10, 20, 11, 12, 21]
        assert owners.tolist() == [0, 0, 1, 1, 1, 2, 2, 2]
        assert not values.flags.writeable
        # b and c had several pieces, a one
        counters = registry.snapshot()["counters"]
        assert counters["repro_storage_compactions_total"] == {"tag=R": 2}
        # merged once: the second read is the merged table, and per-node
        # reads slice it without compacting again
        with collecting() as registry:
            assert np.shares_memory(store.column("R")[1], values)
            assert store.view("b", "R").tolist() == [2, 10, 20]
            assert np.shares_memory(store.view("b", "R"), values)
        assert "repro_storage_compactions_total" not in registry.snapshot()["counters"]

    def test_whole_column_and_per_node_reads_count_the_same(self):
        def loaded():
            store = ColumnarStore(range(6))
            store.install("R", *_table(range(6), [2] * 6))
            store.install("R", *_table([1, 3, 5], [1, 2, 3], first=50))
            _put(store, 0, "R", np.array([7], dtype=np.int64))
            return store

        with collecting() as registry:
            loaded().column("R")
        whole = registry.snapshot()["counters"]["repro_storage_compactions_total"]
        with collecting() as registry:
            store = loaded()
            for node in range(6):
                store.view(node, "R")
        assert whole == {"tag=R": 4}
        assert registry.snapshot()["counters"]["repro_storage_compactions_total"] == whole

    def test_taken_tables_are_released(self):
        store = ColumnarStore(["a", "b"])
        store.install("R", *_table([0, 1], [2, 2]))
        assert store.pop("a", "R").tolist() == [0, 1]
        assert store.sizes() == {"b": {"R": 2}}
        assert store.pop("b", "R").tolist() == [2, 3]
        assert store.sizes() == {}
        assert store._tags["R"].tables == [] and store._tags["R"].pieces == {}


class TestStoreModel:
    """Random interleavings of every write and read against a
    dict-of-lists model."""

    NODES = ("a", 1, "b", 2, "c")
    TAGS = ("x", "y")

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_dict_of_lists(self, data):
        store = ColumnarStore(self.NODES)
        model: dict = {}  # (node, tag) -> list of int
        fresh = iter(range(10**6))

        def values_of(count):
            return np.array([next(fresh) for _ in range(count)], dtype=np.int64)

        for _ in range(data.draw(st.integers(1, 14))):
            op = data.draw(
                st.sampled_from(
                    ("install", "install", "put", "view", "pop", "discard",
                     "sizes", "column", "pop_column")
                )
            )
            tag = data.draw(st.sampled_from(self.TAGS))
            node = data.draw(st.sampled_from(self.NODES))
            if op == "install":  # a table that may skip nodes
                owners = sorted(
                    data.draw(
                        st.sets(st.integers(0, len(self.NODES) - 1), min_size=1)
                    )
                )
                lengths = [data.draw(st.integers(0, 3)) for _ in owners]
                values = values_of(sum(lengths))
                gap = data.draw(st.booleans())  # not column-shaped
                if gap:
                    values = np.concatenate((values_of(2), values))
                ends = np.cumsum(lengths) + 2 * gap
                store.install(
                    tag, np.array(owners), ends - np.array(lengths), ends, values
                )
                for owner, lo, hi in zip(owners, ends - np.array(lengths), ends):
                    if hi > lo:
                        model.setdefault((self.NODES[owner], tag), []).extend(
                            values[lo:hi].tolist()
                        )
            elif op == "put":
                chunk = values_of(data.draw(st.integers(1, 3)))
                _put(store, node, tag, chunk)
                model.setdefault((node, tag), []).extend(chunk.tolist())
            elif op == "view":
                view = store.view(node, tag)
                assert view.tolist() == model.get((node, tag), [])
                assert not view.flags.writeable
                assert store.view(node, tag) is view or not len(view)
            elif op == "pop":
                assert store.pop(node, tag).tolist() == model.pop((node, tag), [])
            elif op == "discard":
                store.discard(node, tag)
                model.pop((node, tag), None)
            elif op in ("column", "pop_column"):
                owners, values = getattr(store, op)(tag)
                expected = [
                    (i, value)
                    for i, name in enumerate(self.NODES)
                    for value in model.get((name, tag), [])
                ]
                assert list(zip(owners.tolist(), values.tolist())) == expected
                assert not values.flags.writeable
                if op == "pop_column":
                    for name in self.NODES:
                        model.pop((name, tag), None)
            expected_sizes: dict = {}
            for (name, held_tag), held in model.items():
                expected_sizes.setdefault(name, {})[held_tag] = len(held)
            assert store.sizes() == expected_sizes
            assert store.size(node, tag) == len(model.get((node, tag), []))
            assert store.size(node) == sum(
                len(held) for (name, _), held in model.items() if name == node
            )
            assert store.tags(node) == frozenset(
                held_tag for (name, held_tag) in model if name == node
            )
