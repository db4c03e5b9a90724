"""Initial data placement across compute nodes.

A :class:`Distribution` records, for each compute node, the fragment of
each relation it initially holds (the paper's ``X_0(v)``), and exposes the
statistics the algorithms are allowed to know in advance: the topology,
the link bandwidths, and the per-node, per-relation cardinalities
(Section 2, "Computation").  Elements are 64-bit integers — the paper's
sets are drawn from an abstract ordered domain, and integers exercise
exactly the same code paths while keeping hashing and sorting vectorised.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.columns import NodeSegments, sorted_nodes
from repro.errors import DistributionError
from repro.topology.tree import NodeId, TreeTopology


_EMPTY = np.empty(0, np.int64)
_EMPTY.setflags(write=False)


def _as_fragment(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise DistributionError(
            f"relation fragments must be one-dimensional, got shape {array.shape}"
        )
    view = array.view()
    view.setflags(write=False)
    return view


class Distribution:
    """Per-node relation fragments, with the statistics protocols may use.

    Parameters
    ----------
    placements:
        ``{node: {relation_tag: fragment}}``.  Fragments are 1-D integer
        arrays (anything ``np.asarray`` accepts).  Nodes with no data may
        be omitted or mapped to empty dicts.

    The stored form is columnar: :attr:`node_order`, the nodes as a
    tuple in canonical order, and per tag one
    :class:`~repro.data.columns.NodeSegments` — a ``values`` array laid
    end to end in that order plus the ``offsets`` each node's fragment
    lies between (:meth:`from_columns` takes that form directly).  The
    container is immutable: fragments are served as read-only views of
    the column.
    """

    def __init__(
        self, placements: Mapping[NodeId, Mapping[str, Iterable[int]]]
    ) -> None:
        by_tag: dict[str, dict] = {}
        for node, relations in placements.items():
            for tag, values in relations.items():
                by_tag.setdefault(str(tag), {})[node] = values
        nodes = sorted_nodes(tuple(placements))
        self._set(
            nodes,
            {
                tag: NodeSegments.pack(
                    fragments, lambda _, values: _as_fragment(values), _EMPTY, nodes
                )
                for tag, fragments in by_tag.items()
            },
        )

    @classmethod
    def from_columns(
        cls,
        nodes: Sequence[NodeId],
        columns: Mapping[str, tuple[np.ndarray, np.ndarray]],
    ) -> "Distribution":
        """A distribution from its stored form, nothing walked per node.

        ``columns[tag]`` is ``(values, offsets)``: node ``nodes[i]``
        holds ``values[offsets[i]:offsets[i + 1]]`` of relation ``tag``.
        The arrays are referenced, not copied, when ``nodes`` are in
        canonical order (a cluster's ``compute_order`` is).
        """
        self = cls.__new__(cls)
        nodes = tuple(nodes)
        self._set(
            sorted_nodes(nodes),
            {
                str(tag): NodeSegments.over(
                    nodes, _as_fragment(values), offsets, DistributionError
                )
                # (a tag is a key of some node's mapping: no nodes, no tags)
                for tag, (values, offsets) in (columns.items() if nodes else ())
            },
        )
        return self

    def _set(self, nodes: tuple, columns: dict[str, NodeSegments]) -> None:
        self.node_order = nodes
        self._columns = columns
        for segments in columns.values():
            segments.array.setflags(write=False)
        self._tags = frozenset(columns)
        self._sizes: dict[str | None, dict[NodeId, int]] = {}  # on first use

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
        return frozenset(self.node_order)

    def column(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Relation ``tag`` as stored: ``(values, offsets)`` over
        :attr:`node_order` (read-only; an absent tag is all-empty)."""
        segments = self._columns.get(str(tag))
        if segments is None:
            return _EMPTY, np.zeros(len(self.node_order) + 1, dtype=np.intp)
        return segments.array, segments.offsets

    def fragment(self, node: NodeId, tag: str) -> np.ndarray:
        """The fragment of relation ``tag`` initially on ``node``.

        Returned as a **read-only zero-copy view** of the stored column;
        callers that need to mutate must ``.copy()`` explicitly.

        Tags are stored under their string form (``__init__`` and the
        cluster both normalize with ``str``), so lookups normalize too —
        a non-string tag must find the data it was stored under, not
        silently read as empty.
        """
        return self._columns.get(str(tag), {}).get(node, _EMPTY)

    def sizes_over(self, nodes: tuple, *tags: str) -> np.ndarray:
        """``|R_v|`` summed over ``tags``, one entry per node of ``nodes``:
        the stored offsets' differences as they are when ``nodes`` is
        :attr:`node_order`, placed by name otherwise (a node the
        placement does not mention holds nothing)."""
        lengths = sum(
            (np.diff(self.column(tag)[1]) for tag in tags),
            np.zeros(len(self.node_order), dtype=np.intp),
        )
        if nodes == self.node_order:
            return lengths
        position = dict(zip(self.node_order, range(len(lengths))))
        return np.append(lengths, 0)[
            np.fromiter(map(position.get, nodes, repeat(-1)), np.intp, len(nodes))
        ]

    def _sizes_of(self, tag: str | None) -> dict:
        tag = tag if tag is None else str(tag)
        known = self._sizes.get(tag)
        if known is None:
            tags = self._columns if tag is None else (tag,)
            lengths = self.sizes_over(self.node_order, *tags)
            known = self._sizes[tag] = dict(zip(self.node_order, lengths.tolist()))
        return known

    def size(self, node: NodeId, tag: str | None = None) -> int:
        """``|R_v|`` for one relation, or ``N_v`` summed over relations."""
        sizes = self._sizes.get(tag)  # hit: a string tag (or None) seen before
        if sizes is None:
            sizes = self._sizes_of(tag)
        return sizes.get(node, 0)

    def sizes(self, tag: str | None = None) -> dict:
        """Per-node sizes as a plain dict (zero-size nodes included)."""
        return dict(self._sizes_of(tag))

    def total(self, tag: str | None = None) -> int:
        """Total number of elements, for one relation or overall (``N``)."""
        tags = self._columns if tag is None else (tag,)
        return sum(len(self.column(t)[0]) for t in tags)

    def relation(self, tag: str) -> np.ndarray:
        """All elements of relation ``tag``, concatenated in node order
        (the stored column itself, read-only)."""
        return self.column(tag)[0]

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
        for node in self.node_order:
            counts = ", ".join(
                f"|{tag}_v|={self.size(node, tag)}"
                for tag in sorted(self._tags)
                if self.size(node, tag)
            )
            lines.append(f"{node}: {counts or 'empty'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Distribution(nodes={len(self.node_order)}, "
            f"tags={sorted(self._tags)}, total={self.total()})"
        )
