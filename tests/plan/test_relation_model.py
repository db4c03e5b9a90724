"""The relation containers and plan stages against their definitions.

A relation is given as ``{node: rows}`` and a placement as ``{node:
{tag: values}}``: whatever the columnar containers hand out per node —
fragments, sizes, encodings, filters, a cluster's stored columns — must
be those rows, byte for byte.  A join or group-by stage runs on its real
cluster under the Section-2 model's auditor (``tests/model/rounds.py``)
and must output the join or aggregate the model computes with dicts.
The ``PlanError`` cases raise with their messages.
"""

import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import use
from repro.data.distribution import Distribution
from repro.data.generators import (
    distribute,
    merge_distributions,
    placement_sizes,
)
from repro.errors import PlanError
from repro.plan.executor import _execute_groupby, _execute_join
from repro.plan.optimizer import AGGREGATE_BITS, PhysicalStage
from repro.plan.relation import (
    _COMPARATORS,
    PlacedRelation,
    Schema,
    chain_catalog,
    random_placed_relation,
    star_catalog,
)
from repro.sim.cluster import Cluster
from repro.topology.builders import fat_tree, star, two_level
from repro.topology.tree import TreeTopology, node_sort_key
from tests.model import tasks
from tests.model.rounds import ModelAuditor

NODE_POOL = ("v2", 7, "v10", 3, "v1", 12, "a")


def mixed_tree(num_leaves: int = 6) -> TreeTopology:
    """A two-rack tree whose compute nodes are ``NODE_POOL`` ids."""
    leaves = NODE_POOL[:num_leaves]
    edges = {("rackA", "core"): 2.0, ("rackB", "core"): 1.0}
    for i, leaf in enumerate(leaves):
        edges[(leaf, "rackA" if i % 2 else "rackB")] = (1.0, 2.0, 4.0)[i % 3]
    return TreeTopology.from_undirected(edges, leaves, name="mixed")


@st.composite
def schemas(draw, *, min_columns: int = 1, max_columns: int = 4) -> Schema:
    arity = draw(st.integers(min_columns, max_columns))
    bits = tuple(draw(st.integers(1, 9)) for _ in range(arity))
    return Schema(tuple(f"c{i}" for i in range(arity)), bits)


@st.composite
def fragment_maps(draw, schema: Schema, nodes=NODE_POOL, *, max_rows: int = 7):
    """``{node: rows}`` with absent nodes, empty fragments and full ones."""
    fragments = {}
    order = draw(st.permutations(nodes))
    for node in order:
        kind = draw(st.sampled_from(("absent", "empty", "rows", "rows")))
        if kind == "absent":
            continue
        count = 0 if kind == "empty" else draw(st.integers(1, max_rows))
        columns = [
            draw(
                st.lists(
                    st.integers(0, (1 << width) - 1),
                    min_size=count,
                    max_size=count,
                )
            )
            for width in schema.bits
        ]
        fragments[node] = np.array(columns, dtype=np.int64).T.reshape(
            count, schema.arity
        )
    return fragments


OPERATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def as_rows(fragment, arity: int) -> list:
    rows = np.asarray(fragment, np.int64).reshape(-1, arity)
    return [tuple(row) for row in rows.tolist()]


def assert_relation_is(relation, schema, fragments, nodes) -> None:
    """``relation`` holds exactly ``fragments`` (``{node: rows}``)."""
    assert relation.schema == schema
    held = {node: as_rows(rows, schema.arity) for node, rows in fragments.items()}
    assert set(relation.node_order) == set(held)
    assert relation.sizes() == {node: len(rows) for node, rows in held.items()}
    assert relation.total_rows == sum(map(len, held.values()))
    for node in (*nodes, "never-seen"):
        mine = relation.fragment(node)
        assert mine.dtype == np.int64 and mine.shape[1:] == (schema.arity,)
        assert as_rows(mine, schema.arity) == held.get(node, [])
        assert relation.size(node) == len(held.get(node, ()))
    in_order = [row for node in sorted(held, key=node_sort_key) for row in held[node]]
    assert as_rows(relation.rows(), schema.arity) == in_order
    by_name = sorted(range(schema.arity), key=lambda i: schema.columns[i])
    assert relation.multiset() == Counter(
        tuple(row[i] for i in by_name) for row in in_order
    )
    for i, name in enumerate(schema.columns):
        assert relation.column(name).tolist() == [row[i] for row in in_order]


def packed(row, bits) -> int:
    """Columns concatenated bitwise, the first one highest."""
    value = 0
    for column, width in zip(row, bits):
        value = (value << width) | column
    return value


def assert_distribution_is(distribution, placements, nodes, tags) -> None:
    """``distribution`` holds exactly ``placements`` (``{node: {tag: values}}``)."""
    held = {
        node: {str(tag): [int(x) for x in values] for tag, values in relations.items()}
        for node, relations in placements.items()
    }
    assert set(distribution.node_order) == set(held)
    assert distribution.tags == frozenset(tag for r in held.values() for tag in r)
    for tag in (*map(str, tags), "never-seen", None):
        sizes = {
            node: sum(len(v) for t, v in relations.items() if tag in (None, t))
            for node, relations in held.items()
        }
        assert distribution.sizes(tag) == sizes
        assert distribution.total(tag) == sum(sizes.values())
        for node in (*nodes, "never-seen"):
            assert distribution.size(node, tag) == sizes.get(node, 0)
        if tag is None:
            continue
        assert distribution.relation(tag).tolist() == [
            x for node in sorted(held, key=node_sort_key) for x in held[node].get(tag, [])
        ]
        for node in (*nodes, "never-seen"):
            mine = distribution.fragment(node, tag)
            assert not mine.flags.writeable
            assert mine.tolist() == held.get(node, {}).get(tag, [])


class TestContainers:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_relation_accessors_encodings_and_filters(self, data):
        schema = data.draw(schemas())
        fragments = data.draw(fragment_maps(schema))
        relation = PlacedRelation(schema, fragments)
        assert_relation_is(relation, schema, fragments, NODE_POOL)
        # filters keep every surviving row on its node
        column = data.draw(st.sampled_from(schema.columns))
        op = data.draw(st.sampled_from(sorted(_COMPARATORS)))
        value = data.draw(st.integers(0, 1 << schema.width(column)))
        at = schema.index(column)
        assert_relation_is(
            relation.filter(column, op, value),
            schema,
            {
                node: [
                    row
                    for row in as_rows(rows, schema.arity)
                    if OPERATORS[op](row[at], value)
                ]
                for node, rows in fragments.items()
            },
            NODE_POOL,
        )
        if schema.arity < 2:
            return
        # stage encodings: the key above the other columns, packed
        key = data.draw(st.sampled_from(schema.columns))
        at = schema.index(key)
        payload_schema = schema.drop(key)

        def encoded(width) -> dict:
            return {
                node: [
                    row[at] << width | packed(row[:at] + row[at + 1 :], payload_schema.bits)
                    for row in as_rows(rows, schema.arity)
                ]
                for node, rows in fragments.items()
            }

        bits = payload_schema.total_bits + data.draw(st.integers(0, 3))
        found, found_schema, width = relation.key_payload(key, payload_bits=bits)
        assert (found_schema, width) == (payload_schema, bits)
        assert {node: values.tolist() for node, values in found.items()} == encoded(bits)
        assert_distribution_is(
            relation.to_distribution(key, tag="T"),
            {
                node: {"T": values}
                for node, values in encoded(payload_schema.total_bits).items()
            },
            NODE_POOL,
            ("T",),
        )

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_relation_from_columns_equals_from_mapping(self, data):
        schema = data.draw(schemas())
        fragments = data.draw(fragment_maps(schema))
        nodes = tuple(fragments)
        rows = np.concatenate(
            [fragments[n] for n in nodes] or [np.empty((0, schema.arity), np.int64)]
        )
        offsets = np.concatenate(
            ([0], np.cumsum([len(fragments[n]) for n in nodes], dtype=np.intp))
        )
        built = PlacedRelation.from_columns(schema, nodes, rows, offsets)
        assert_relation_is(built, schema, fragments, NODE_POOL)
        assert built.node_order == PlacedRelation(schema, fragments).node_order

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_distribution_accessors(self, data):
        tags = ("R", "S", 7)
        placements: dict = {}
        for node in data.draw(st.permutations(NODE_POOL)):
            if data.draw(st.booleans()):
                continue
            placements[node] = {
                tag: np.array(
                    data.draw(st.lists(st.integers(-5, 50), max_size=6)),
                    dtype=np.int64,
                )
                for tag in tags
                if data.draw(st.booleans())
            }
        assert_distribution_is(Distribution(placements), placements, NODE_POOL, tags)

    @pytest.mark.parametrize("policy", ["uniform", "zipf", "single-heavy", "proportional"])
    @pytest.mark.parametrize(
        "tree", [star(5), two_level([3, 4, 2], uplink_bandwidth=0.5), fat_tree(2, 3), mixed_tree()],
        ids=lambda tree: tree.name,
    )
    def test_generators_place_by_the_policy(self, tree, policy):
        """Rows and values land on each node as many as the policy says,
        along the left-to-right order, every value in range, none lost."""
        schema = Schema(("k", "v", "w"), (10, 6, 3))
        relation = random_placed_relation(
            tree, schema, rows=97, key_space=8, seed=5, policy=policy
        )
        order = tree.left_to_right_compute_order()
        sizes = placement_sizes(tree, 97, policy, order)
        assert relation.sizes() == dict(sizes)
        assert relation.rows().min(initial=0) >= 0 and relation.rows().max() < 8
        again = random_placed_relation(
            tree, schema, rows=97, key_space=8, seed=5, policy=policy
        )
        assert relation.rows().tobytes() == again.rows().tobytes()
        sizes = placement_sizes(tree, 61, policy)
        values = np.arange(61, dtype=np.int64) * 3
        parts = []
        for tag, seed in (("R", None), ("S", 4)):
            parts.append(distribute(values, sizes, tag=tag, shuffle_seed=seed))
            assert parts[-1].sizes(tag) == dict(sizes)
            placed = [x for node in sizes for x in parts[-1].fragment(node, tag).tolist()]
            # a shuffle permutes the values; without one they keep their order
            assert (placed if seed is None else sorted(placed)) == values.tolist()
        assert_distribution_is(
            merge_distributions(*parts),
            {
                node: {
                    tag: part.fragment(node, tag)
                    for part, tag in zip(parts, "RS")
                    if part.size(node, tag)
                }
                for node in sizes
            },
            tree.compute_nodes,
            ("R", "S"),
        )

    def test_merge_aligns_parts_over_different_nodes(self):
        left = Distribution({"v2": {"R": [1, 2]}, 7: {"R": [3]}})
        right = Distribution({"v1": {"S": [4]}, 7: {"S": [5, 6]}, "a": {"S": []}})
        assert_distribution_is(
            merge_distributions(left, right),
            {"v2": {"R": [1, 2]}, 7: {"R": [3], "S": [5, 6]}, "v1": {"S": [4]}, "a": {}},
            NODE_POOL,
            ("R", "S"),
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cluster_load_and_column(self, data):
        tree = mixed_tree()
        placements = {
            node: {
                tag: np.array(
                    data.draw(st.lists(st.integers(0, 99), max_size=5)), np.int64
                )
                for tag in ("R", "S")
                if data.draw(st.booleans())
            }
            for node in data.draw(st.permutations(sorted(tree.compute_nodes, key=str)))
            if data.draw(st.booleans())
        }
        cluster = Cluster(tree, Distribution(placements))
        order = cluster.compute_order
        for tag in ("R", "S", "absent"):
            held = [placements.get(node, {}).get(tag, []) for node in order]
            for node, values in zip(order, held):
                assert cluster.local(node, tag).tolist() == list(values)
            owners, values = cluster.column(tag)
            assert owners.tolist() == [i for i, part in enumerate(held) for _ in part]
            assert values.tolist() == [int(x) for part in held for x in part]
            assert owners.dtype.kind in "iu" and owners.dtype.itemsize <= 2
            assert not values.flags.writeable
            assert not (owners.size and owners.flags.writeable)


def join_stage(left: Schema, right: Schema, protocol: str, residual: bool) -> PhysicalStage:
    """``left ⋈ right`` on their first columns, optionally also on their
    second ones as a residual condition."""
    on = ((left.columns[1], right.columns[1]),) if residual else ()
    dropped = {right.columns[0], *(name for _, name in on)}
    kept = [i for i, name in enumerate(right.columns) if name not in dropped]
    return PhysicalStage(
        kind="join",
        inputs=(0, 1),
        left_column=left.columns[0],
        right_column=right.columns[0],
        residual=on,
        protocol=protocol,
        output_columns=left.columns + tuple(right.columns[i] for i in kept),
        output_bits=left.bits + tuple(right.bits[i] for i in kept),
    )


def all_rows(relation) -> list:
    return as_rows(relation.rows(), relation.schema.arity)


def run_stage(execute, *args, seed):
    """The stage's report and output, every round checked by the model."""
    auditor = ModelAuditor()
    with use(auditor=auditor):
        report, output = execute(*args, seed=seed)
    assert report is None or report.rounds == len(auditor.costs)
    return report, output


class TestStages:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_join_stage(self, data):
        tree = mixed_tree()
        nodes = tuple(tree.compute_nodes)
        arity = data.draw(st.integers(2, 3))
        bits = tuple(data.draw(st.integers(1, 3)) for _ in range(arity))
        left_schema = Schema(tuple(f"l{i}" for i in range(arity)), bits)
        right_schema = Schema(
            tuple(f"r{i}" for i in range(arity)),
            (bits[0], bits[1], *(data.draw(st.integers(1, 4)) for _ in bits[2:])),
        )
        left = PlacedRelation(left_schema, data.draw(fragment_maps(left_schema, nodes)))
        right = PlacedRelation(right_schema, data.draw(fragment_maps(right_schema, nodes)))
        residual = data.draw(st.booleans())
        stage = join_stage(
            left_schema,
            right_schema,
            data.draw(st.sampled_from(("tree", "uniform-hash", "gather"))),
            residual,
        )
        report, produced = run_stage(
            _execute_join, stage, 2, tree, left, right, seed=data.draw(st.integers(0, 99))
        )
        # the model's join on the first columns, then the residual one
        pairs = tasks.join(
            [(row[0], row) for row in all_rows(left)],
            [(row[0], row) for row in all_rows(right)],
        )
        expected = Counter(
            l + r[1 + residual :]
            for (_, l, r), count in pairs.items()
            for _ in range(count)
            if not residual or l[1] == r[1]
        )
        assert produced.schema == stage.schema
        assert Counter(all_rows(produced)) == expected
        assert set(produced.node_order) <= set(nodes)
        assert (report is None) == (not left.total_rows or not right.total_rows)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_groupby_stage(self, data):
        tree = mixed_tree()
        nodes = tuple(tree.compute_nodes)
        schema = Schema(("g", "x", "y"), (4, 5, 3))
        child = PlacedRelation(schema, data.draw(fragment_maps(schema, nodes)))
        op = data.draw(st.sampled_from(("sum", "count", "min", "max")))
        value = data.draw(st.sampled_from(("x", "y")))
        stage = PhysicalStage(
            kind="groupby",
            inputs=(0,),
            key="g",
            agg_value=value,
            op=op,
            protocol=data.draw(st.sampled_from(("tree", "uniform-hash", "gather"))),
            output_columns=("g", f"{op}_{value}"),
            output_bits=(4, AGGREGATE_BITS),
        )
        report, produced = run_stage(
            _execute_groupby, stage, 1, tree, child, seed=data.draw(st.integers(0, 99))
        )
        at = schema.index(value)
        expected = tasks.aggregate([(row[0], row[at]) for row in all_rows(child)], op)
        assert produced.schema == stage.schema
        assert sorted(all_rows(produced)) == sorted(expected.items())
        for node in produced.node_order:  # each node's groups ascend by key
            keys = produced.fragment(node)[:, 0].tolist()
            assert keys == sorted(keys)
        assert (report is None) == (not child.total_rows)

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_catalog_relations_are_placed_by_the_policy(self, shape):
        tree = two_level([4, 3, 5], uplink_bandwidth=2)
        make = chain_catalog if shape == "chain" else star_catalog
        catalog = make(tree, rows=120, key_space=32, seed=9, policy="zipf")
        sizes = placement_sizes(tree, 120, "zipf", tree.left_to_right_compute_order())
        for relation in catalog.values():
            assert relation.sizes() == dict(sizes)
            assert 0 <= relation.rows().min() and relation.rows().max() < 32


class TestErrors:
    """The checks run once per relation, with their messages."""

    def _raised(self, call) -> str:
        with pytest.raises(PlanError) as info:
            call()
        return str(info.value)

    def test_out_of_range_column_value(self):
        schema = Schema(("k", "v"), (4, 3))
        fragments = {"v1": [[1, 2]], "v2": [[3, 8]], 3: [[2, 1]]}
        relation = PlacedRelation(schema, fragments)
        assert (
            self._raised(lambda: relation.key_payload("k"))
            == "column 'v' has values outside [0, 2^3)"
        )
        negative = PlacedRelation(schema, {"v1": [[1, -1]]})
        assert (
            self._raised(lambda: negative.to_distribution("k"))
            == "column 'v' has values outside [0, 2^3)"
        )

    def test_payload_too_wide_or_too_narrow(self):
        wide = Schema(("k", "a", "b"), (8, 30, 20))
        narrow = Schema(("k", "v"), (8, 8))
        for fragments in ({"v1": [[1, 2, 3]]}, {}):
            relation = PlacedRelation(wide, fragments)
            assert "caps payloads at 40 bits" in self._raised(
                lambda: relation.key_payload("k")
            )
        relation = PlacedRelation(narrow, {"v1": [[1, 2]]})
        assert (
            self._raised(lambda: relation.key_payload("k", payload_bits=4))
            == "payload needs 8 bits but only 4 offered"
        )

    def test_bad_fragment_shape(self):
        schema = Schema(("a", "b"), (4, 4))
        bad = {"v1": np.zeros((2, 2), np.int64), 7: np.zeros((2, 3), np.int64)}
        assert (
            self._raised(lambda: PlacedRelation(schema, bad))
            == "fragment at 7 has shape (2, 3); expected (n, 2)"
        )
        with pytest.raises(PlanError):
            PlacedRelation.from_columns(schema, ("v1",), np.zeros((2, 3)), [0, 2])
        with pytest.raises(PlanError):
            PlacedRelation.from_columns(schema, ("v1",), np.zeros((2, 2)), [0, 1])
