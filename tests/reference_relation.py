"""The relation containers and plan stages by their per-node definitions:
the reference model.

These are the bodies production ran before a relation became one
``(values, offsets)`` pair from the catalog to the store: a
``PlacedRelation`` as a dict of row fragments packed node by node, a
``Distribution`` as a dict of dicts, ``distribute`` / ``merge`` /
``random_placed_relation`` building those dicts, ``Cluster.load`` as
one ``put`` per ``(node, tag)`` and ``Cluster.column`` as a
concatenation of per-node views, and the executor's join and group-by
stages looping over ``tree.compute_nodes`` on the way in and over
``result.outputs.items()`` on the way out.  They are slow and obviously
right.  ``tests/plan/test_reference_relation.py`` compares production
with them fragment by fragment, byte for byte.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.distribution import Distribution
from repro.data.generators import PlacementSizes, placement_sizes
from repro.engine import run_with_result
from repro.errors import DistributionError, PlanError
from repro.plan.optimizer import AGGREGATE_BITS, PhysicalStage
from repro.plan.relation import (
    _COMPARATORS,
    MAX_PAYLOAD_BITS,
    MAX_ROW_BITS,
    Schema,
)
from repro.queries.tuples import encode_tuples
from repro.report import RunReport
from repro.topology.tree import NodeId, TreeTopology, node_sort_key
from repro.util.grouping import index_dtype
from repro.util.seeding import derive_seed
from tests.cluster_storage import put

_EMPTY = np.empty(0, np.int64)
_EMPTY.setflags(write=False)


# --------------------------------------------------------------------- #
# plan/relation.py
# --------------------------------------------------------------------- #


class ReferenceRelation:
    """One relation's rows, fragment by compute node.

    Parameters
    ----------
    schema:
        Column names and widths shared by every fragment.
    fragments:
        ``{node: rows}`` with ``rows`` a ``(n, arity)`` integer array;
        nodes may be omitted or hold empty arrays.

    The container is immutable in the same sense as
    :class:`~repro.data.distribution.Distribution`: accessors copy, and
    transformations return new instances.
    """

    def __init__(
        self, schema: Schema, fragments: Mapping[NodeId, np.ndarray]
    ) -> None:
        self.schema = schema
        self._fragments: dict[NodeId, np.ndarray] = {}
        for node, rows in fragments.items():
            array = np.asarray(rows, dtype=np.int64)
            if array.size == 0:
                array = array.reshape(0, schema.arity)
            if array.ndim != 2 or array.shape[1] != schema.arity:
                raise PlanError(
                    f"fragment at {node!r} has shape {array.shape}; "
                    f"expected (n, {schema.arity})"
                )
            self._fragments[node] = array.copy()

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._fragments)

    def fragment(self, node: NodeId) -> np.ndarray:
        """Rows held at ``node`` (copy; empty when the node is absent)."""
        rows = self._fragments.get(node)
        if rows is None:
            return np.empty((0, self.schema.arity), dtype=np.int64)
        return rows.copy()

    def size(self, node: NodeId) -> int:
        return int(len(self._fragments.get(node, ())))

    def sizes(self) -> dict:
        return {node: len(rows) for node, rows in self._fragments.items()}

    @property
    def total_rows(self) -> int:
        return sum(len(rows) for rows in self._fragments.values())

    def rows(self) -> np.ndarray:
        """All rows concatenated in deterministic node order."""
        parts = [
            self._fragments[node]
            for node in sorted(self._fragments, key=node_sort_key)
            if len(self._fragments[node])
        ]
        if not parts:
            return np.empty((0, self.schema.arity), dtype=np.int64)
        return np.concatenate(parts)

    def column(self, name: str) -> np.ndarray:
        return self.rows()[:, self.schema.index(name)]

    def multiset(self, *, columns: Sequence[str] | None = None) -> Counter:
        """Row multiset as a :class:`Counter` of tuples.

        ``columns`` selects and orders the projection; by default the
        columns are sorted by name, so relations produced under
        different join orders (hence different column orders) compare
        equal whenever they agree as logical relations.
        """
        names = (
            sorted(self.schema.columns) if columns is None else list(columns)
        )
        indices = [self.schema.index(n) for n in names]
        rows = self.rows()[:, indices]
        return Counter(map(tuple, rows.tolist()))

    # ------------------------------------------------------------------ #
    # stage encodings
    # ------------------------------------------------------------------ #

    def key_payload(
        self, column: str, *, payload_bits: int | None = None
    ) -> tuple[dict, Schema, int]:
        """Encode fragments as ``key << payload_bits | payload`` elements.

        ``column`` becomes the key; the remaining columns pack into the
        payload.  Returns ``(encoded_fragments, payload_schema,
        payload_bits)`` ready to feed a registered keyed protocol
        (equi-join, group-by).  ``payload_bits`` may be forced upward so
        the two sides of a join share one width.
        """
        payload_schema = self.schema.drop(column)
        needed = payload_schema.total_bits
        width = needed if payload_bits is None else int(payload_bits)
        if width < needed:
            raise PlanError(
                f"payload needs {needed} bits but only {width} offered"
            )
        if width > MAX_PAYLOAD_BITS:
            raise PlanError(
                f"payload of {payload_schema.columns} needs {width} bits; "
                f"the element encoding caps payloads at {MAX_PAYLOAD_BITS} "
                "bits — use narrower columns or aggregate earlier"
            )
        key_width = self.schema.width(column)
        if key_width + width > MAX_ROW_BITS:
            raise PlanError(
                f"key {column!r} ({key_width} bits) plus payload "
                f"({width} bits) exceeds {MAX_ROW_BITS} bits"
            )
        key_index = self.schema.index(column)
        payload_indices = [
            i for i in range(self.schema.arity) if i != key_index
        ]
        encoded: dict = {}
        for node, rows in self._fragments.items():
            keys = rows[:, key_index]
            payload = payload_schema.pack(rows[:, payload_indices])
            encoded[node] = (keys << np.int64(width)) | payload
        return encoded, payload_schema, width

    def to_distribution(self, column: str, *, tag: str = "R") -> Distribution:
        """One-relation :class:`Distribution` keyed on ``column``."""
        encoded, _, _ = self.key_payload(column)
        return Distribution({node: {tag: values} for node, values in encoded.items()})

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #

    def filter(self, column: str, op: str, value: int) -> "ReferenceRelation":
        """Keep rows where ``column <op> value`` (a free local step)."""
        comparator = _COMPARATORS.get(op)
        if comparator is None:
            raise PlanError(
                f"unknown filter operator {op!r}; "
                f"choose from {sorted(_COMPARATORS)}"
            )
        index = self.schema.index(column)
        return ReferenceRelation(
            self.schema,
            {
                node: rows[comparator(rows[:, index], np.int64(value))]
                for node, rows in self._fragments.items()
            },
        )

    def __repr__(self) -> str:
        return (
            f"ReferenceRelation(columns={list(self.schema.columns)}, "
            f"rows={self.total_rows}, nodes={len(self._fragments)})"
        )


def reference_random_placed_relation(
    tree: TreeTopology,
    schema: Schema,
    *,
    rows: int,
    key_space: int,
    seed: int = 0,
    policy: str = "uniform",
) -> ReferenceRelation:
    """A random relation with every column uniform in ``[0, key_space)``."""
    for column in schema.columns:
        if key_space > (1 << schema.width(column)):
            raise PlanError(
                f"key_space {key_space} exceeds column {column!r} width"
            )
    nodes = tree.left_to_right_compute_order()
    rng = np.random.default_rng(derive_seed(seed, "plan-relation"))
    data = rng.integers(
        0, key_space, size=(rows, schema.arity), dtype=np.int64
    )
    sizes = placement_sizes(tree, rows, policy, nodes)
    fragments: dict = {}
    offset = 0
    for node in nodes:
        fragments[node] = data[offset : offset + sizes[node]]
        offset += sizes[node]
    return ReferenceRelation(schema, fragments)


# --------------------------------------------------------------------- #
# data/distribution.py, data/generators.py
# --------------------------------------------------------------------- #


def _as_fragment(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise DistributionError(
            f"relation fragments must be one-dimensional, got shape {array.shape}"
        )
    view = array.view()
    view.setflags(write=False)
    return view


class ReferenceDistribution:
    """Per-node relation fragments, with the statistics protocols may use.

    Parameters
    ----------
    placements:
        ``{node: {relation_tag: fragment}}``.  Fragments are 1-D integer
        arrays (anything ``np.asarray`` accepts).  Nodes with no data may
        be omitted or mapped to empty dicts.

    The container is immutable: fragments are stored and served as
    read-only views (never copied — the zero-copy handoff between plan
    stages and cluster seeding rides on this).
    """

    def __init__(
        self, placements: Mapping[NodeId, Mapping[str, Iterable[int]]]
    ) -> None:
        self._fragments: dict[NodeId, dict[str, np.ndarray]] = {}
        tags: set[str] = set()
        for node, relations in placements.items():
            node_fragments: dict[str, np.ndarray] = {}
            for tag, values in relations.items():
                fragment = _as_fragment(values)
                node_fragments[str(tag)] = fragment
                tags.add(str(tag))
            self._fragments[node] = node_fragments
        self._tags = frozenset(tags)
        # The container is immutable, so every size statistic is fixed
        # here: per tag (``None`` = all relations) the per-node sizes,
        # zero-size nodes included, and their total.
        self._sizes: dict[str | None, dict[NodeId, int]] = {
            tag: dict.fromkeys(self._fragments, 0) for tag in (None, *tags)
        }
        for node, node_fragments in self._fragments.items():
            for tag, fragment in node_fragments.items():
                self._sizes[tag][node] = len(fragment)
                self._sizes[None][node] += len(fragment)
        self._totals = {
            tag: sum(sizes.values()) for tag, sizes in self._sizes.items()
        }

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def tags(self) -> frozenset:
        """The relation names present anywhere in the placement."""
        return self._tags

    @property
    def nodes(self) -> frozenset:
        """Nodes that appear in the placement (possibly with empty data)."""
        return frozenset(self._fragments)

    def fragment(self, node: NodeId, tag: str) -> np.ndarray:
        """The fragment of relation ``tag`` initially on ``node``.

        Returned as a **read-only zero-copy view** of the stored column;
        callers that need to mutate must ``.copy()`` explicitly.

        Tags are stored under their string form (``__init__`` and the
        cluster both normalize with ``str``), so lookups normalize too —
        a non-string tag must find the data it was stored under, not
        silently read as empty.
        """
        return self._fragments.get(node, {}).get(str(tag), _EMPTY)

    def _sizes_of(self, tag: str | None) -> dict:
        known = self._sizes.get(tag if tag is None else str(tag))
        return dict.fromkeys(self._fragments, 0) if known is None else known

    def size(self, node: NodeId, tag: str | None = None) -> int:
        """``|R_v|`` for one relation, or ``N_v`` summed over relations."""
        return self._sizes_of(tag).get(node, 0)

    def sizes(self, tag: str | None = None) -> dict:
        """Per-node sizes as a plain dict (zero-size nodes included)."""
        return dict(self._sizes_of(tag))

    def total(self, tag: str | None = None) -> int:
        """Total number of elements, for one relation or overall (``N``)."""
        return self._totals.get(tag if tag is None else str(tag), 0)

    def relation(self, tag: str) -> np.ndarray:
        """All elements of relation ``tag``, concatenated in node order."""
        tag = str(tag)
        parts = [
            self._fragments[node].get(tag, np.empty(0, np.int64))
            for node in sorted(self._fragments, key=node_sort_key)
        ]
        if not parts:
            return np.empty(0, np.int64)
        return np.concatenate(parts)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate_for(self, tree: TreeTopology) -> None:
        """Check the placement only uses compute nodes of ``tree``."""
        strays = self.nodes - tree.compute_nodes
        nonempty_strays = [n for n in strays if self.size(n) > 0]
        if nonempty_strays:
            raise DistributionError(
                "data placed on non-compute nodes: "
                f"{sorted(map(str, nonempty_strays))}"
            )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        """A one-line-per-node summary of the placement."""
        lines = []
        for node in sorted(self._fragments, key=node_sort_key):
            counts = ", ".join(
                f"|{tag}_v|={len(fragment)}"
                for tag, fragment in sorted(self._fragments[node].items())
            )
            lines.append(f"{node}: {counts or 'empty'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ReferenceDistribution(nodes={len(self._fragments)}, "
            f"tags={sorted(self._tags)}, total={self.total()})"
        )


def reference_distribute(
    values: np.ndarray,
    sizes: PlacementSizes,
    *,
    tag: str,
    shuffle_seed: int | None = None,
) -> ReferenceDistribution:
    """Place ``values`` on nodes according to per-node ``sizes``.

    Sizes must sum to ``len(values)``.  When ``shuffle_seed`` is given the
    values are shuffled first, decoupling fragment boundaries from value
    order; leave it ``None`` to preserve order (required by the
    adversarial sorted placement).
    """
    total = sum(sizes.values())
    if total != len(values):
        raise DistributionError(
            f"sizes sum to {total} but there are {len(values)} values"
        )
    data = np.asarray(values, dtype=np.int64)
    if shuffle_seed is not None:
        data = data.copy()
        np.random.default_rng(derive_seed(shuffle_seed, "distribute", tag)).shuffle(data)
    placements: dict = {}
    offset = 0
    for node, size in sizes.items():
        placements[node] = {tag: data[offset : offset + size]}
        offset += size
    return ReferenceDistribution(placements)


def reference_merge_distributions(*parts: ReferenceDistribution) -> ReferenceDistribution:
    """Combine distributions over disjoint relation tags."""
    placements: dict = {}
    seen_tags: set[str] = set()
    for part in parts:
        overlap = seen_tags & set(part.tags)
        if overlap:
            raise DistributionError(f"duplicate relation tags {sorted(overlap)}")
        seen_tags |= set(part.tags)
        for node in part.nodes:
            target = placements.setdefault(node, {})
            for tag in part.tags:
                fragment = part.fragment(node, tag)
                if len(fragment):
                    target[tag] = fragment
    return ReferenceDistribution(placements)


# --------------------------------------------------------------------- #
# sim/cluster.py: Cluster.load and Cluster.column, as functions of a cluster
# --------------------------------------------------------------------- #


def reference_load(cluster, distribution) -> None:
    """Install an initial placement (``X_0``) into node storage."""
    distribution.validate_for(cluster.tree)
    for node in distribution.nodes:
        for tag in distribution.tags:
            fragment = distribution.fragment(node, tag)
            if len(fragment):
                put(cluster, node, tag, fragment)


def reference_column(cluster, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Relation ``tag`` across all compute nodes: ``(owners, values)``.

    ``values`` concatenates every node's :meth:`local` view in
    canonical compute order and ``owners[i]`` is the compute-order
    index of the node holding ``values[i]`` — ascending, in the
    routing index's narrow lookup dtype.  This is what the
    relation-at-a-time calls (:meth:`RoundContext.exchange_column`)
    and the segmented local kernels consume.
    """
    tag = str(tag)
    view = cluster.local
    parts = [view(node, tag) for node in cluster.compute_order]
    lengths = np.fromiter(map(len, parts), np.intp, len(parts))
    positions = np.arange(len(parts), dtype=index_dtype(len(parts)))
    return np.repeat(positions, lengths), np.concatenate(parts)


# --------------------------------------------------------------------- #
# plan/executor.py
# --------------------------------------------------------------------- #


def reference_execute_join(
    stage: PhysicalStage,
    index: int,
    tree: TreeTopology,
    left: ReferenceRelation,
    right: ReferenceRelation,
    *,
    seed: int,
    verify: bool,
) -> tuple[RunReport | None, ReferenceRelation]:
    out_schema = stage.schema
    if left.total_rows == 0 or right.total_rows == 0:
        return None, ReferenceRelation(out_schema, {})

    left_payload_schema = left.schema.drop(stage.left_column)
    right_payload_schema = right.schema.drop(stage.right_column)
    shared_bits = max(
        left_payload_schema.total_bits, right_payload_schema.total_bits
    )
    left_encoded, _, _ = left.key_payload(
        stage.left_column, payload_bits=shared_bits
    )
    right_encoded, _, _ = right.key_payload(
        stage.right_column, payload_bits=shared_bits
    )
    placements: dict = {}
    for node in tree.compute_nodes:
        fragments = {}
        if node in left_encoded and len(left_encoded[node]):
            fragments["R"] = left_encoded[node]
        if node in right_encoded and len(right_encoded[node]):
            fragments["S"] = right_encoded[node]
        if fragments:
            placements[node] = fragments
    report, result = run_with_result(
        "equijoin",
        tree,
        Distribution(placements),
        protocol=stage.protocol,
        seed=derive_seed(seed, "plan-stage", index),
        placement=f"stage {index}",
        verify=verify,
        payload_bits=shared_bits,
        materialize=True,
    )

    fragments = {}
    for node, output in result.outputs.items():
        pairs = output.get("pairs")
        if pairs is None or not len(pairs):
            continue
        left_columns = dict(
            zip(
                left_payload_schema.columns,
                left_payload_schema.unpack(pairs[:, 1]).T,
            )
        )
        right_columns = dict(
            zip(
                right_payload_schema.columns,
                right_payload_schema.unpack(pairs[:, 2]).T,
            )
        )
        keys = pairs[:, 0]
        keep = np.ones(len(pairs), dtype=bool)
        for left_name, right_name in stage.residual:
            # A residual condition may reuse the stage's join-key column
            # (e.g. A.a = B.b and A.a = B.c): that column was dropped
            # from the payload, but its values are exactly `keys`.
            left_values = (
                keys
                if left_name == stage.left_column
                else left_columns[left_name]
            )
            right_values = (
                keys
                if right_name == stage.right_column
                else right_columns[right_name]
            )
            keep &= left_values == right_values
        named = {stage.left_column: keys, **left_columns}
        for name, values in right_columns.items():
            if name not in {b for _, b in stage.residual}:
                named[name] = values
        rows = np.stack(
            [named[c][keep] for c in out_schema.columns], axis=1
        )
        if len(rows):
            fragments[node] = rows
    return report, ReferenceRelation(out_schema, fragments)


def reference_execute_groupby(
    stage: PhysicalStage,
    index: int,
    tree: TreeTopology,
    child: ReferenceRelation,
    *,
    seed: int,
    verify: bool,
) -> tuple[RunReport | None, ReferenceRelation]:
    out_schema = stage.schema
    if child.total_rows == 0:
        return None, ReferenceRelation(out_schema, {})
    key_index = child.schema.index(stage.key)
    value_index = child.schema.index(stage.agg_value)
    placements: dict = {}
    for node in sorted(child.nodes, key=node_sort_key):
        rows = child.fragment(node)
        if not len(rows):
            continue
        placements[node] = {
            "R": encode_tuples(
                rows[:, key_index],
                rows[:, value_index],
                payload_bits=AGGREGATE_BITS,
            )
        }
    report, result = run_with_result(
        "groupby-aggregate",
        tree,
        Distribution(placements),
        protocol=stage.protocol,
        seed=derive_seed(seed, "plan-stage", index),
        placement=f"stage {index}",
        verify=verify,
        op=stage.op,
        payload_bits=AGGREGATE_BITS,
    )
    fragments = {}
    for node, groups in result.outputs.items():
        if not groups:
            continue
        keys = getattr(groups, "keys_array", None)
        if keys is not None:
            # Array output contract: columns arrive sorted by key, so
            # the stage output is a single stack — no boxing, no sort.
            fragments[node] = np.stack([keys, groups.values_array], axis=1)
            continue
        keys = np.fromiter(groups.keys(), np.int64, len(groups))
        values = np.fromiter(groups.values(), np.int64, len(groups))
        order = np.argsort(keys, kind="stable")
        fragments[node] = np.stack([keys[order], values[order]], axis=1)
    return report, ReferenceRelation(out_schema, fragments)
