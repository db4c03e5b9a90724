"""Multi-column relations on the 64-bit element substrate.

The simulator ships 1-D ``int64`` arrays and charges one element per
value, so a relational row must fit one element to keep the model's
per-tuple accounting.  A :class:`Schema` assigns each named column a bit
width and packs a row into a single non-negative ``int64`` (at most 62
bits total, like :mod:`repro.queries.tuples`); a
:class:`PlacedRelation` holds the unpacked rows of one relation,
fragment by compute node — the planner's unit of data flow.  Between
pipeline stages the executor re-packs a relation around the next join
key (:meth:`PlacedRelation.key_payload`), runs a registered protocol on
the resulting :class:`~repro.data.distribution.Distribution`, and
unpacks the materialized pairs back into rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.columns import NodeSegments, offsets_of
from repro.data.distribution import Distribution
from repro.data.generators import placement_sizes
from repro.errors import PlanError
from repro.topology.tree import NodeId, TreeTopology
from repro.util.seeding import derive_seed

# encode_tuples in repro.queries.tuples caps the payload at 40 bits and
# the key at 62 - payload_bits; schema packing inherits both limits.
MAX_ROW_BITS = 62
MAX_PAYLOAD_BITS = 40


@dataclass(frozen=True)
class Schema:
    """Named columns with fixed bit widths, packable into one element.

    Attributes
    ----------
    columns:
        Column names, unique within the schema.
    bits:
        Bit width per column (values must lie in ``[0, 2**bits)``).
        The total width is capped at 62 bits so any full row — and any
        projection used as a shuffle payload — fits the simulator's
        signed 64-bit elements.
    """

    columns: tuple
    bits: tuple

    def __post_init__(self) -> None:
        columns = tuple(str(c) for c in self.columns)
        bits = tuple(int(b) for b in self.bits)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "bits", bits)
        if len(columns) != len(bits):
            raise PlanError(
                f"{len(columns)} columns but {len(bits)} bit widths"
            )
        if not columns:
            raise PlanError("a schema needs at least one column")
        if len(set(columns)) != len(columns):
            raise PlanError(f"duplicate column names in {columns}")
        if any(b < 1 for b in bits):
            raise PlanError("column widths must be at least 1 bit")
        if sum(bits) > MAX_ROW_BITS:
            raise PlanError(
                f"schema {columns} needs {sum(bits)} bits; rows must fit "
                f"{MAX_ROW_BITS} bits to ship as single elements"
            )

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def total_bits(self) -> int:
        return sum(self.bits)

    def index(self, column: str) -> int:
        """Position of ``column``; raises :class:`PlanError` if absent."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise PlanError(
                f"unknown column {column!r}; schema has {list(self.columns)}"
            ) from None

    def width(self, column: str) -> int:
        return self.bits[self.index(column)]

    def drop(self, column: str) -> "Schema":
        """The schema without ``column`` (must leave at least one)."""
        keep = self.index(column)
        columns = tuple(c for i, c in enumerate(self.columns) if i != keep)
        bits = tuple(b for i, b in enumerate(self.bits) if i != keep)
        if not columns:
            raise PlanError("cannot drop the only column of a schema")
        return Schema(columns, bits)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """Pack ``(n, arity)`` rows into ``n`` elements, first column high."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.arity:
            raise PlanError(
                f"expected rows of shape (n, {self.arity}), got {rows.shape}"
            )
        packed = np.zeros(len(rows), dtype=np.int64)
        for i, width in enumerate(self.bits):
            column = rows[:, i]
            if len(column) and (
                column.min() < 0 or column.max() >= np.int64(1) << width
            ):
                raise PlanError(
                    f"column {self.columns[i]!r} has values outside "
                    f"[0, 2^{width})"
                )
            packed = (packed << width) | column
        return packed

    def unpack(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack`: ``n`` elements to ``(n, arity)`` rows."""
        values = np.asarray(values, dtype=np.int64)
        rows = np.empty((len(values), self.arity), dtype=np.int64)
        remaining = values.copy()
        for i in range(self.arity - 1, -1, -1):
            width = self.bits[i]
            mask = (np.int64(1) << width) - np.int64(1)
            rows[:, i] = remaining & mask
            remaining >>= width
        return rows


class PlacedRelation:
    """One relation's rows, fragment by compute node.

    Parameters
    ----------
    schema:
        Column names and widths shared by every fragment.
    fragments:
        ``{node: rows}`` with ``rows`` a ``(n, arity)`` integer array;
        nodes may be omitted or hold empty arrays.

    The stored form is columnar (:class:`~repro.data.columns.NodeSegments`):
    the nodes as a tuple in canonical order, one ``(n, arity)`` row
    array laid end to end in that order, and the offsets each node's
    fragment lies between — :attr:`node_order`, :attr:`offsets`, and
    :meth:`from_columns` takes that form directly — so every stage step
    (pack, filter, statistics) is one array operation per relation.
    The container is immutable in the same sense as
    :class:`~repro.data.distribution.Distribution`: accessors copy, and
    transformations return new instances.
    """

    def __init__(
        self, schema: Schema, fragments: Mapping[NodeId, np.ndarray]
    ) -> None:
        def as_rows(node, rows) -> np.ndarray:
            array = np.asarray(rows, dtype=np.int64)
            if array.size == 0:
                array = array.reshape(0, schema.arity)
            if array.ndim != 2 or array.shape[1] != schema.arity:
                raise PlanError(
                    f"fragment at {node!r} has shape {array.shape}; "
                    f"expected (n, {schema.arity})"
                )
            return array

        if not isinstance(fragments, NodeSegments):  # else: the stored form
            empty = np.empty((0, schema.arity), dtype=np.int64)
            fragments = NodeSegments.pack(fragments, as_rows, empty)
        self.schema = schema
        self._segments = fragments
        self._rows = fragments.array
        self.node_order = fragments.nodes
        self.offsets = fragments.offsets.view()
        self.offsets.setflags(write=False)

    @classmethod
    def from_columns(
        cls, schema: Schema, nodes: Sequence[NodeId], rows: np.ndarray, offsets
    ) -> "PlacedRelation":
        """A relation from its stored form, nothing walked per node.

        Node ``nodes[i]`` holds ``rows[offsets[i]:offsets[i + 1]]``.
        ``rows`` is referenced, not copied, when ``nodes`` are in
        canonical order — the caller hands it over.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != schema.arity:
            raise PlanError(
                f"expected rows of shape (n, {schema.arity}), got {rows.shape}"
            )
        return cls(schema, NodeSegments.over(nodes, rows, offsets, PlanError))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    def fragment(self, node: NodeId) -> np.ndarray:
        """Rows held at ``node`` (copy; empty when the node is absent)."""
        return self._segments.get(node, self._rows[:0]).copy()

    def size(self, node: NodeId) -> int:
        return len(self._segments.get(node, ()))

    def sizes(self) -> dict:
        return self._segments.sizes()

    @property
    def total_rows(self) -> int:
        return len(self._rows)

    def rows(self) -> np.ndarray:
        """All rows concatenated in deterministic node order."""
        return self._rows.copy()

    def column(self, name: str) -> np.ndarray:
        return self._rows[:, self.schema.index(name)].copy()

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
        return Counter(map(tuple, self._rows[:, indices].tolist()))

    # ------------------------------------------------------------------ #
    # stage encodings
    # ------------------------------------------------------------------ #

    def _encode(
        self, column: str, payload_bits: int | None
    ) -> tuple[np.ndarray, Schema, int]:
        """The whole relation as ``key << payload_bits | payload``
        elements, in row order: one pack per relation."""
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
        payload = payload_schema.pack(self._rows[:, payload_indices])
        encoded = (self._rows[:, key_index] << np.int64(width)) | payload
        return encoded, payload_schema, width

    def key_payload(
        self, column: str, *, payload_bits: int | None = None
    ) -> tuple[Mapping, Schema, int]:
        """Encode fragments as ``key << payload_bits | payload`` elements.

        ``column`` becomes the key; the remaining columns pack into the
        payload.  Returns ``(encoded_fragments, payload_schema,
        payload_bits)`` ready to feed a registered keyed protocol
        (equi-join, group-by), the first a ``{node: elements}`` mapping
        over the one encoded array.  ``payload_bits`` may be forced
        upward so the two sides of a join share one width.
        """
        encoded, payload_schema, width = self._encode(column, payload_bits)
        segments = NodeSegments(self.node_order, encoded, self.offsets)
        return segments, payload_schema, width

    def to_distribution(
        self, column: str, *, tag: str = "R", payload_bits: int | None = None
    ) -> Distribution:
        """One-relation :class:`Distribution` keyed on ``column``."""
        encoded, _, _ = self._encode(column, payload_bits)
        return Distribution.from_columns(
            self.node_order, {tag: (encoded, self.offsets)}
        )

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #

    def filter(self, column: str, op: str, value: int) -> "PlacedRelation":
        """Keep rows where ``column <op> value`` (a free local step)."""
        comparator = _COMPARATORS.get(op)
        if comparator is None:
            raise PlanError(
                f"unknown filter operator {op!r}; "
                f"choose from {sorted(_COMPARATORS)}"
            )
        keep = comparator(
            self._rows[:, self.schema.index(column)], np.int64(value)
        )
        return self.select(keep)

    def select(self, keep: np.ndarray) -> "PlacedRelation":
        """The rows under a boolean mask, each staying on its node."""
        return PlacedRelation(self.schema, self._segments.select(keep))

    def __repr__(self) -> str:
        return (
            f"PlacedRelation(columns={list(self.schema.columns)}, "
            f"rows={self.total_rows}, nodes={len(self.node_order)})"
        )


_COMPARATORS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


# --------------------------------------------------------------------- #
# catalog generators (used by the CLI, benchmarks, examples and tests)
# --------------------------------------------------------------------- #


def random_placed_relation(
    tree: TreeTopology,
    schema: Schema,
    *,
    rows: int,
    key_space: int,
    seed: int = 0,
    policy: str = "uniform",
) -> PlacedRelation:
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
    offsets = offsets_of(np.fromiter(map(sizes.__getitem__, nodes), np.intp))
    return PlacedRelation.from_columns(schema, nodes, data, offsets)


def chain_catalog(
    tree: TreeTopology,
    *,
    num_relations: int = 3,
    rows: int = 2_000,
    key_space: int = 1_024,
    column_bits: int = 10,
    seed: int = 0,
    policy: str = "uniform",
) -> dict:
    """Base relations for a chain join ``R0(x0,x1) ⋈ R1(x1,x2) ⋈ ...``.

    Relation ``Ri`` has columns ``(x{i}, x{i+1})``, so consecutive
    relations share exactly one column — the classic chain query.
    """
    if key_space > (1 << column_bits):
        raise PlanError("key_space exceeds the column width")
    catalog: dict = {}
    for i in range(num_relations):
        schema = Schema((f"x{i}", f"x{i + 1}"), (column_bits, column_bits))
        catalog[f"R{i}"] = random_placed_relation(
            tree,
            schema,
            rows=rows,
            key_space=key_space,
            seed=derive_seed(seed, "chain", i),
            policy=policy,
        )
    return catalog


def star_catalog(
    tree: TreeTopology,
    *,
    num_satellites: int = 2,
    rows: int = 2_000,
    key_space: int = 1_024,
    column_bits: int = 10,
    seed: int = 0,
    policy: str = "uniform",
) -> dict:
    """Base relations for a star join: a fact ``F(k, a0)`` against
    dimension relations ``D1(k, a1), D2(k, a2), ...`` all sharing ``k``."""
    if key_space > (1 << column_bits):
        raise PlanError("key_space exceeds the column width")
    catalog = {
        "F": random_placed_relation(
            tree,
            Schema(("k", "a0"), (column_bits, column_bits)),
            rows=rows,
            key_space=key_space,
            seed=derive_seed(seed, "star", 0),
            policy=policy,
        )
    }
    for i in range(1, num_satellites + 1):
        catalog[f"D{i}"] = random_placed_relation(
            tree,
            Schema(("k", f"a{i}"), (column_bits, column_bits)),
            rows=rows,
            key_space=key_space,
            seed=derive_seed(seed, "star", i),
            policy=policy,
        )
    return catalog
