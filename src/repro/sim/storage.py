"""Columnar per-tag storage: segment tables first, per-node pieces on demand.

A relation lives in the store the way a protocol produced it: one
*table* per install — a values array plus ``(owner, start, end)`` arrays
saying which stretch each node holds.  The per-node column is the
presentation: the first per-node access to a tag cuts its tables into
each node's *pieces* (zero-copy slices, in arrival order).  The
contract (``tests/sim/test_storage.py``):

* **installing a table is O(1) in nodes** — :meth:`ColumnarStore.install`
  references the four arrays it is given; no per-node Python runs;
* **``view(node, tag)`` is O(1) and zero-copy for a node with one
  piece** and concatenates once otherwise — the merged array replaces
  the pieces, so repeated reads return the same object until the next
  write to that column;
* **``column(tag)`` is zero-copy for a tag held as one table** whose
  stretches lie end to end in ascending owner order (a loaded relation,
  a unicast delivery): ``values`` is the table's array itself and
  ``owners`` is built once per table.  Otherwise it costs one
  concatenate of the tag's arrays plus one stable reorder of the
  stretches by owner, and the merged column replaces them, so the
  second call is zero-copy;
* **everything handed out is ``writeable=False``**; arrays handed in are
  referenced, never copied;
* ``sizes()`` / ``size()`` / ``tags()`` / ``pop()`` / ``discard()``
  answer per ``(node, tag)`` exactly as a dict of chunk lists would.

``repro_storage_compactions_total{tag=...}`` counts the ``(node, tag)``
columns that had more than one piece when a read merged them — the same
number whether 144 per-node reads or one whole-column merge did the
merging.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.obs.tracer import mark
from repro.util.grouping import index_dtype, regroup_stretches

#: Shared zero-length read-only column served for absent (node, tag)s.
_EMPTY = np.empty(0, np.int64)
_EMPTY.setflags(write=False)


def _readonly(array: np.ndarray) -> np.ndarray:
    """A ``writeable=False`` view of ``array`` (the array is untouched)."""
    view = array.view()
    view.setflags(write=False)
    return view


class _Tag:
    """One tag: per-node ``pieces`` (``{index: [arrays]}``), then
    ``tables`` of ``(values, owners, starts, ends)`` — every table is
    newer than every piece.  ``owners`` caches :meth:`column`'s first
    result while the tag is one column-shaped table."""

    __slots__ = ("pieces", "tables", "owners")

    def __init__(self) -> None:
        self.pieces: dict[int, list[np.ndarray]] = {}
        self.tables: list[tuple] = []
        self.owners: np.ndarray | None = None

    def per_node(self) -> dict[int, list[np.ndarray]]:
        """``pieces``, after cutting every table into them."""
        for values, owners, starts, ends in self.tables:
            for owner, start, end in zip(
                owners.tolist(), starts.tolist(), ends.tolist()
            ):
                self.pieces.setdefault(owner, []).append(values[start:end])
        if self.tables:
            self.tables, self.owners = [], None
        return self.pieces


class ColumnarStore:
    """``(node, tag) -> column`` storage behind the cluster surface.

    ``nodes`` fixes the index space tables are installed in (a cluster
    passes its canonical compute order).  Arrays must already be
    one-dimensional ``int64`` — the cluster validates payloads before
    they reach storage.
    """

    __slots__ = ("_nodes", "_position", "_tags")

    def __init__(self, nodes: Sequence = ()) -> None:
        self._nodes = tuple(nodes)
        self._position = dict(zip(self._nodes, range(len(self._nodes))))
        self._tags: dict[str, _Tag] = {}

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def _tag(self, tag: str) -> _Tag:
        state = self._tags.get(tag)
        if state is None:
            state = self._tags[tag] = _Tag()
        return state

    def install(
        self,
        tag: str,
        owners: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Give node ``owners[i]`` the stretch ``values[starts[i]:ends[i]]``.

        ``owners`` are indices into the store's node order; an empty
        stretch installs nothing for its node.
        """
        held = ends > starts
        if not held.all():
            owners, starts, ends = owners[held], starts[held], ends[held]
        if len(owners):
            state = self._tag(tag)
            state.tables.append((_readonly(values), owners, starts, ends))
            state.owners = None

    def discard(self, node, tag: str) -> None:
        """Drop a column (no-op when absent)."""
        state = self._tags.get(tag)
        if state is not None:
            state.per_node().pop(self._position.get(node), None)

    def pop(self, node, tag: str) -> np.ndarray:
        """Remove a column and return its (read-only) contents."""
        values = self.view(node, tag)
        self.discard(node, tag)
        return values

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def _pieces(self, node, tag: str) -> Sequence[np.ndarray]:
        state = self._tags.get(tag)
        if state is None:
            return ()
        return state.per_node().get(self._position.get(node), ())

    def view(self, node, tag: str) -> np.ndarray:
        """The column's elements as a read-only array (cached).

        A column in several pieces is concatenated on first read;
        repeated reads return the same array object until the next
        write to it.
        """
        pieces = self._pieces(node, tag)
        if len(pieces) > 1:
            merged = np.concatenate(pieces)
            merged.setflags(write=False)
            pieces[:] = [merged]
            mark("storage.compact", "storage", tag=tag, columns=1)
        return pieces[0] if pieces else _EMPTY

    def chunk_count(self, node, tag: str) -> int:
        """Pieces in a column (1 after a read merged them)."""
        return len(self._pieces(node, tag))

    def column(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """The whole tag as ``(owners, values)``, ascending by owner.

        ``owners[i]`` is the store index of the node holding
        ``values[i]``, in the narrow index dtype; each node's elements
        keep their arrival order.
        """
        dtype = index_dtype(len(self._nodes))
        state = self._tags.get(tag)
        if state is None or not (state.pieces or state.tables):
            return np.empty(0, dtype), _EMPTY
        if state.owners is None:
            tables = state.tables
            if state.pieces:  # as one more table, older than the others
                arrays = [a for pieces in state.pieces.values() for a in pieces]
                ends = np.cumsum(np.fromiter(map(len, arrays), np.intp, len(arrays)))
                held = np.repeat(
                    np.fromiter(state.pieces, np.intp, len(state.pieces)),
                    [len(pieces) for pieces in state.pieces.values()],
                )
                starts = ends - np.diff(ends, prepend=0)
                tables = [(np.concatenate(arrays), held, starts, ends), *tables]
            values, owners, starts, ends, stretches = regroup_stretches(tables)
            columns = int(np.count_nonzero(stretches > 1))
            if columns:
                mark("storage.compact", "storage", tag=tag, columns=columns)
            state.pieces, state.tables = {}, [(_readonly(values), owners, starts, ends)]
            state.owners = np.repeat(owners.astype(dtype), ends - starts)
            state.owners.setflags(write=False)
        return state.owners, state.tables[0][0]

    def pop_column(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Remove a whole tag and return it as :meth:`column` would."""
        column = self.column(tag)
        self._tags.pop(tag, None)
        return column

    def size(self, node, tag: str | None = None) -> int:
        """Element count for one column, or across a node's columns."""
        tags = self._tags if tag is None else (tag,)
        return sum(len(piece) for t in tags for piece in self._pieces(node, t))

    def tags(self, node) -> frozenset:
        """The tags a node currently holds (possibly with empty columns)."""
        return frozenset(tag for tag in self._tags if self._pieces(node, tag))

    def nodes(self) -> Iterator:
        """Nodes with at least one column."""
        return iter(self.sizes())

    def sizes(self) -> dict:
        """``{node: {tag: length}}`` snapshot (the auditor's baseline)."""
        held: dict = {}
        for tag, state in self._tags.items():
            lengths = {i: sum(map(len, a)) for i, a in state.pieces.items()}
            for _, owners, starts, ends in state.tables:
                for owner, length in zip(owners.tolist(), (ends - starts).tolist()):
                    lengths[owner] = lengths.get(owner, 0) + length
            for index, length in lengths.items():
                held.setdefault(self._nodes[index], {})[tag] = length
        return held
