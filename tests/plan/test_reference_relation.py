"""Differential: the columnar relation containers and plan stages against
their per-node definitions (``tests/reference_relation.py``).

Production stores a relation as one array plus offsets over a canonical
node tuple and runs every stage step once per relation; the reference
keeps a dict of fragments and loops over nodes.  Whatever either hands
out per node — fragments, encoded elements, sizes, stage outputs, stage
reports — must agree byte for byte, and the ``PlanError`` cases must
raise the same type with the same message: the range check runs once
per relation, it is not dropped.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serve import strip_report
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
from repro.topology.tree import TreeTopology
from repro.util.seeding import derive_seed
from tests.reference_relation import (
    ReferenceDistribution,
    ReferenceRelation,
    reference_column,
    reference_distribute,
    reference_execute_groupby,
    reference_execute_join,
    reference_load,
    reference_merge_distributions,
    reference_random_placed_relation,
)

#: string and int ids side by side, in an order that is not canonical
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


def assert_relations_agree(produced: PlacedRelation, reference, nodes) -> None:
    assert produced.schema == reference.schema
    assert produced.total_rows == reference.total_rows
    assert produced.multiset() == reference.multiset()
    for node in (*nodes, "never-seen"):
        mine, theirs = produced.fragment(node), reference.fragment(node)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes(), node
        assert produced.size(node) == reference.size(node)
    assert produced.rows().tobytes() == reference.rows().tobytes()


def assert_distributions_agree(produced, reference, nodes, tags) -> None:
    assert produced.tags == reference.tags
    assert produced.nodes == reference.nodes
    assert produced.sizes() == reference.sizes()
    assert produced.total() == reference.total()
    for tag in (*tags, "never-seen"):
        assert produced.sizes(tag) == reference.sizes(tag)
        assert produced.total(tag) == reference.total(tag)
        assert produced.relation(tag).tobytes() == reference.relation(tag).tobytes()
        for node in (*nodes, "never-seen"):
            mine = produced.fragment(node, tag)
            assert not mine.flags.writeable
            assert mine.tobytes() == reference.fragment(node, tag).tobytes()
            assert produced.size(node, tag) == reference.size(node, tag)
            assert produced.size(node) == reference.size(node)


class TestContainers:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_relation_accessors_encodings_and_filters(self, data):
        schema = data.draw(schemas())
        fragments = data.draw(fragment_maps(schema))
        produced = PlacedRelation(schema, fragments)
        reference = ReferenceRelation(schema, fragments)
        assert produced.nodes == reference.nodes
        assert produced.sizes() == reference.sizes()
        assert_relations_agree(produced, reference, NODE_POOL)
        for name in schema.columns:
            assert produced.column(name).tolist() == reference.column(name).tolist()
        # filters keep every surviving row on its node
        column = data.draw(st.sampled_from(schema.columns))
        op = data.draw(st.sampled_from(sorted(_COMPARATORS)))
        value = data.draw(st.integers(0, 1 << schema.width(column)))
        assert_relations_agree(
            produced.filter(column, op, value),
            reference.filter(column, op, value),
            NODE_POOL,
        )
        if schema.arity < 2:
            return
        # stage encodings: one pack per relation, the same bytes per node
        key = data.draw(st.sampled_from(schema.columns))
        extra = data.draw(st.integers(0, 3))
        bits = schema.total_bits - schema.width(key) + extra
        mine, mine_schema, mine_bits = produced.key_payload(key, payload_bits=bits)
        theirs, their_schema, their_bits = reference.key_payload(
            key, payload_bits=bits
        )
        assert (mine_schema, mine_bits) == (their_schema, their_bits)
        assert set(mine) == set(theirs)
        for node, encoded in theirs.items():
            assert mine[node].tobytes() == encoded.tobytes()
        assert_distributions_agree(
            produced.to_distribution(key, tag="T"),
            reference.to_distribution(key, tag="T"),
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
        assert_relations_agree(built, ReferenceRelation(schema, fragments), NODE_POOL)
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
        produced, reference = Distribution(placements), ReferenceDistribution(placements)
        assert_distributions_agree(produced, reference, NODE_POOL, tags)

    @pytest.mark.parametrize("policy", ["uniform", "zipf", "single-heavy", "proportional"])
    @pytest.mark.parametrize(
        "tree", [star(5), two_level([3, 4, 2], uplink_bandwidth=0.5), fat_tree(2, 3), mixed_tree()],
        ids=lambda tree: tree.name,
    )
    def test_generators_place_the_same_bytes(self, tree, policy):
        schema = Schema(("k", "v", "w"), (10, 6, 3))
        produced = random_placed_relation(
            tree, schema, rows=97, key_space=8, seed=5, policy=policy
        )
        reference = reference_random_placed_relation(
            tree, schema, rows=97, key_space=8, seed=5, policy=policy
        )
        assert produced.nodes == reference.nodes
        assert_relations_agree(produced, reference, tree.compute_nodes)
        sizes = placement_sizes(tree, 61, policy)
        values = np.arange(61, dtype=np.int64) * 3
        parts, reference_parts = [], []
        for tag, seed in (("R", None), ("S", 4)):
            parts.append(distribute(values, sizes, tag=tag, shuffle_seed=seed))
            reference_parts.append(
                reference_distribute(values, sizes, tag=tag, shuffle_seed=seed)
            )
            assert_distributions_agree(
                parts[-1], reference_parts[-1], tree.compute_nodes, (tag,)
            )
        assert_distributions_agree(
            merge_distributions(*parts),
            reference_merge_distributions(*reference_parts),
            tree.compute_nodes,
            ("R", "S"),
        )

    def test_merge_aligns_parts_over_different_nodes(self):
        left = Distribution({"v2": {"R": [1, 2]}, 7: {"R": [3]}})
        right = Distribution({"v1": {"S": [4]}, 7: {"S": [5, 6]}, "a": {"S": []}})
        merged = merge_distributions(left, right)
        reference = reference_merge_distributions(
            ReferenceDistribution({"v2": {"R": [1, 2]}, 7: {"R": [3]}}),
            ReferenceDistribution({"v1": {"S": [4]}, 7: {"S": [5, 6]}, "a": {"S": []}}),
        )
        assert_distributions_agree(merged, reference, NODE_POOL, ("R", "S"))

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
        distribution = Distribution(placements)
        produced, reference = Cluster(tree, distribution), Cluster(tree)
        reference_load(reference, distribution)
        for tag in ("R", "S", "absent"):
            for node in tree.compute_nodes:
                assert (
                    produced.local(node, tag).tobytes()
                    == reference.local(node, tag).tobytes()
                )
            owners, values = produced.column(tag)
            their_owners, their_values = reference_column(reference, tag)
            assert owners.dtype == their_owners.dtype
            assert owners.tolist() == their_owners.tolist()
            assert values.tobytes() == their_values.tobytes()
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


def both(schema: Schema, fragments: dict):
    return PlacedRelation(schema, fragments), ReferenceRelation(schema, fragments)


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
        left, left_reference = both(
            left_schema, data.draw(fragment_maps(left_schema, nodes))
        )
        right, right_reference = both(
            right_schema, data.draw(fragment_maps(right_schema, nodes))
        )
        stage = join_stage(
            left_schema,
            right_schema,
            data.draw(st.sampled_from(("tree", "uniform-hash", "gather"))),
            data.draw(st.booleans()),
        )
        seed = data.draw(st.integers(0, 99))
        report, produced = _execute_join(
            stage, 2, tree, left, right, seed=seed, verify=True
        )
        their_report, reference = reference_execute_join(
            stage, 2, tree, left_reference, right_reference, seed=seed, verify=True
        )
        assert_relations_agree(produced, reference, nodes)
        if report is None:
            assert their_report is None
        else:
            assert strip_report(report) == strip_report(their_report)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_groupby_stage(self, data):
        tree = mixed_tree()
        nodes = tuple(tree.compute_nodes)
        schema = Schema(("g", "x", "y"), (4, 5, 3))
        child, child_reference = both(schema, data.draw(fragment_maps(schema, nodes)))
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
        seed = data.draw(st.integers(0, 99))
        report, produced = _execute_groupby(
            stage, 1, tree, child, seed=seed, verify=True
        )
        their_report, reference = reference_execute_groupby(
            stage, 1, tree, child_reference, seed=seed, verify=True
        )
        assert_relations_agree(produced, reference, nodes)
        if report is None:
            assert their_report is None
        else:
            assert strip_report(report) == strip_report(their_report)

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_catalog_generators_place_the_same_bytes(self, shape):
        tree = two_level([4, 3, 5], uplink_bandwidth=2)
        make = chain_catalog if shape == "chain" else star_catalog
        catalog = make(tree, rows=120, key_space=32, seed=9, policy="zipf")
        for i, name in enumerate(sorted(catalog, key=lambda n: (n != "F", n))):
            relation = catalog[name]
            reference = reference_random_placed_relation(
                tree,
                relation.schema,
                rows=120,
                key_space=32,
                seed=derive_seed(9, shape, i),
                policy="zipf",
            )
            assert_relations_agree(relation, reference, tree.compute_nodes)


class TestSameErrors:
    """The checks run once per relation — with the same type and text."""

    def _raised(self, call) -> str:
        with pytest.raises(PlanError) as info:
            call()
        return str(info.value)

    def test_out_of_range_column_value(self):
        schema = Schema(("k", "v"), (4, 3))
        fragments = {"v1": [[1, 2]], "v2": [[3, 8]], 3: [[2, 1]]}
        for relation_class in (PlacedRelation, ReferenceRelation):
            relation = relation_class(schema, fragments)
            assert (
                self._raised(lambda: relation.key_payload("k"))
                == "column 'v' has values outside [0, 2^3)"
            )
        negative = {"v1": [[1, -1]]}
        assert self._raised(
            lambda: PlacedRelation(schema, negative).to_distribution("k")
        ) == self._raised(
            lambda: ReferenceRelation(schema, negative).to_distribution("k")
        )

    def test_payload_too_wide_or_too_narrow(self):
        wide = Schema(("k", "a", "b"), (8, 30, 20))
        narrow = Schema(("k", "v"), (8, 8))
        for relation_class in (PlacedRelation, ReferenceRelation):
            relation = relation_class(wide, {"v1": [[1, 2, 3]]})
            assert "caps payloads at 40 bits" in self._raised(
                lambda: relation.key_payload("k")
            )
            relation = relation_class(narrow, {"v1": [[1, 2]]})
            assert (
                self._raised(lambda: relation.key_payload("k", payload_bits=4))
                == "payload needs 8 bits but only 4 offered"
            )
        messages = {
            self._raised(lambda: cls(wide, {}).key_payload("k"))
            for cls in (PlacedRelation, ReferenceRelation)
        }
        assert len(messages) == 1

    def test_bad_fragment_shape(self):
        schema = Schema(("a", "b"), (4, 4))
        bad = {"v1": np.zeros((2, 2), np.int64), 7: np.zeros((2, 3), np.int64)}
        messages = {
            self._raised(lambda: cls(schema, bad))
            for cls in (PlacedRelation, ReferenceRelation)
        }
        assert messages == {"fragment at 7 has shape (2, 3); expected (n, 2)"}
        with pytest.raises(PlanError):
            PlacedRelation.from_columns(schema, ("v1",), np.zeros((2, 3)), [0, 2])
        with pytest.raises(PlanError):
            PlacedRelation.from_columns(schema, ("v1",), np.zeros((2, 2)), [0, 1])
