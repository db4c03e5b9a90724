"""Columnar per-node storage with lazy compaction and read-only views.

Before this module, :class:`~repro.sim.cluster.Cluster` held storage as
``dict[node][tag] -> list[ndarray]`` chunk lists and every
``local()`` call paid a fresh ``np.concatenate`` — O(total) per *read*,
on a path protocols read far more often than they write (uniform-hash
reads each tag once per round; hash-to-min reads its candidates every
superstep).  :class:`ColumnarStore` inverts that cost:

* **appends are O(1)** — a delivered chunk is referenced, never copied;
* **compaction is lazy and cached** — the first read of a multi-chunk
  column concatenates once, replaces the chunk list with the compacted
  array, and every subsequent read returns the same cached array until
  the next append invalidates it;
* **reads are zero-copy and read-only** — ``view()`` returns a
  ``writeable=False`` view, so a single-chunk column can be served as a
  direct alias of the delivered chunk without the historical
  silent-corruption hazard (a protocol mutating the return value now
  raises instead of rewriting storage);
* **sizes are O(1)** — column lengths are maintained incrementally, so
  the auditor's per-round conservation snapshot costs a dict walk, not
  a chunk walk.

Each multi-chunk concatenation is counted on the installed metrics
registry as ``repro_storage_compactions_total{tag=...}``.  The count is
backend-agnostic by the same argument as the other round families:
unicast delivery lands exactly one chunk per ``(dst, tag)`` per round,
multicast delivery at most one more (a slice view of the grouped payload
where one group serves the destination, one gathered chunk where several
do) — and both shapes are identical across substrates, because the process
backend finalizes its streams through the same master-side delivery
code — while protocols issue the same reads on either substrate, so sim
and process snapshots of the same protocol agree (the cross-process
metrics tests pin this down).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.obs.metrics import get_registry

#: Shared zero-length read-only column served for absent (node, tag)s.
_EMPTY = np.empty(0, np.int64)
_EMPTY.setflags(write=False)


def _readonly(array: np.ndarray) -> np.ndarray:
    """A ``writeable=False`` view of ``array`` (the array is untouched)."""
    view = array.view()
    view.setflags(write=False)
    return view


class _Column:
    """One (node, tag) column: pending chunks + cached compacted array."""

    __slots__ = ("chunks", "length", "compacted")

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.length = 0
        self.compacted: np.ndarray | None = None

    def append(self, chunk: np.ndarray) -> None:
        self.chunks.append(chunk)
        self.length += len(chunk)
        self.compacted = None

    def view(self, tag: str) -> np.ndarray:
        if self.compacted is None:
            if not self.chunks:
                return _EMPTY
            if len(self.chunks) == 1:
                self.compacted = _readonly(self.chunks[0])
            else:
                compacted = np.concatenate(self.chunks)
                compacted.setflags(write=False)
                self.compacted = compacted
                self.chunks = [compacted]
                registry = get_registry()
                if registry.enabled:
                    registry.counter(
                        "repro_storage_compactions_total", tag=tag
                    ).inc()
        return self.compacted


class ColumnarStore:
    """``(node, tag) -> column`` storage behind the cluster surface.

    All arrays handed to :meth:`append` must already be
    one-dimensional ``int64`` — the cluster validates payloads before
    they reach storage.  Chunks are referenced, not copied; everything
    handed back out is read-only.
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: dict[object, dict[str, _Column]] = {}

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def _column(self, node, tag: str) -> _Column:
        tagged = self._data.get(node)
        if tagged is None:
            tagged = self._data[node] = {}
        column = tagged.get(tag)
        if column is None:
            column = tagged[tag] = _Column()
        return column

    def append(self, node, tag: str, chunk: np.ndarray) -> None:
        """Reference one delivered chunk at the end of a column."""
        self._column(node, tag).append(chunk)

    def discard(self, node, tag: str) -> None:
        """Drop a column (no-op when absent)."""
        tagged = self._data.get(node)
        if tagged is not None:
            tagged.pop(tag, None)

    def pop(self, node, tag: str) -> np.ndarray:
        """Remove a column and return its (read-only) contents."""
        values = self.view(node, tag)
        self.discard(node, tag)
        return values

    def clear(self) -> None:
        """Drop every column (the process backend's ``close``)."""
        self._data.clear()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def view(self, node, tag: str) -> np.ndarray:
        """The column's elements as a read-only array (cached).

        Compacts the chunk list on first read after an append; repeated
        reads return the same array object until the next write.
        """
        tagged = self._data.get(node)
        if tagged is None:
            return _EMPTY
        column = tagged.get(tag)
        if column is None:
            return _EMPTY
        return column.view(tag)

    def size(self, node, tag: str | None = None) -> int:
        """Element count for one column, or across a node's columns."""
        tagged = self._data.get(node, {})
        if tag is not None:
            column = tagged.get(tag)
            return column.length if column is not None else 0
        return sum(column.length for column in tagged.values())

    def tags(self, node) -> frozenset:
        """The tags a node currently holds (possibly with empty columns)."""
        return frozenset(self._data.get(node, ()))

    def nodes(self) -> Iterator:
        """Nodes with at least one column."""
        return iter(self._data)

    def sizes(self) -> dict:
        """``{node: {tag: length}}`` snapshot (the auditor's baseline)."""
        return {
            node: {tag: column.length for tag, column in tagged.items()}
            for node, tagged in self._data.items()
        }

    def chunk_count(self, node, tag: str) -> int:
        """Pending chunks in a column (1 after a read compacted it)."""
        tagged = self._data.get(node)
        if tagged is None:
            return 0
        column = tagged.get(tag)
        return len(column.chunks) if column is not None else 0
