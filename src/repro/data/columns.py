"""Columnar containers: one array per relation, cut into per-node stretches.

The stored form of a placed relation, a distribution tag and a protocol
output is the same: the nodes as an explicit tuple in canonical order,
one array laid end to end in that order, and an offsets vector saying
which stretch each node holds.  :class:`NodeSegments` is that form,
with the node-keyed ``Mapping`` as its presentation, and
:class:`NodeOutputs` is the same presentation for per-node protocol
outputs held as whole-relation arrays.

Group-by style protocols historically reported ``outputs[node]`` as a
``{int: int}`` dict — built by boxing every aggregated key and value
into Python ints, and unboxed right back into arrays by every consumer
(the plan executor re-collects fragments, hash-to-min re-scatters its
labels every superstep).  :class:`KeyValueArrays` is the columnar
replacement: the sorted unique keys and their values stay the int64
arrays the kernels produced, zero-copy end to end, while the class
remains a :class:`collections.abc.Mapping` — ``len``, ``in``,
``[key]``, ``.items()``, and ``== {…}`` all behave exactly like the
dict they replace, so existing verifiers and tests keep working
unchanged (the compatibility view the data-plane contract promises).
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.topology.tree import canonical_order
from repro.util.grouping import concat_ranges


def offsets_of(lengths) -> np.ndarray:
    """``[0, l0, l0 + l1, ...]``: where each of end-to-end stretches begins."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def sorted_nodes(nodes: tuple) -> tuple:
    """``nodes`` in canonical (``node_sort_key``) order."""
    order = canonical_order(nodes)
    return nodes if order is None else tuple(map(nodes.__getitem__, order))


class NodeOutputs(Mapping):
    """``outputs[node]`` over results held as whole-relation arrays.

    A relation-at-a-time kernel returns its arrays plus the bounds each
    node's share lies between; a subclass builds one node's classic
    output object from them in :meth:`_item`, on demand.  Consumers
    that want the arrays (the plan executor) read the subclass's
    attributes and never touch the mapping.
    """

    def __init__(self, nodes: Sequence) -> None:
        self.nodes = tuple(nodes)
        self._position: dict | None = None

    def _item(self, index: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator:
        return iter(self.nodes)

    def _index(self, node) -> int | None:
        if self._position is None:
            self._position = dict(zip(self.nodes, range(len(self.nodes))))
        return self._position.get(node)

    def get(self, node, default=None):
        index = self._index(node)
        return default if index is None else self._item(index)

    def __getitem__(self, node):
        index = self._index(node)
        if index is None:
            raise KeyError(node)
        return self._item(index)

    def values(self) -> list:
        return list(map(self._item, range(len(self.nodes))))

    def items(self) -> list:
        return list(zip(self.nodes, self.values()))


class NodeSegments(NodeOutputs):
    """One array cut into per-node stretches — the columnar stored form.

    ``nodes`` in canonical order, ``array`` laid end to end in that
    order, and node ``nodes[i]`` holding
    ``array[offsets[i]:offsets[i + 1]]``; ``segments[node]`` is that
    stretch, a zero-copy slice.  :meth:`pack` is the one way a ``{node:
    array}`` mapping becomes this form, :meth:`over` the one way a
    columnar input over nodes in any order does.
    """

    def __init__(self, nodes: tuple, array: np.ndarray, offsets: np.ndarray) -> None:
        super().__init__(nodes)
        self.array = array
        self.offsets = offsets

    def _item(self, index: int) -> np.ndarray:
        return self.array[self.offsets[index] : self.offsets[index + 1]]

    @classmethod
    def pack(
        cls,
        fragments: Mapping,
        coerce: Callable,
        empty: np.ndarray,
        nodes: tuple | None = None,
    ) -> "NodeSegments":
        """Lay a ``{node: array}`` mapping end to end.

        ``coerce(node, value)`` validates one fragment and returns its
        array; fragments are visited in mapping order, so the first bad
        one is the one reported.  The layout follows ``nodes`` (default:
        the mapping's own keys in canonical order), a node the mapping
        leaves out holding ``empty``; the array is always a fresh one.
        """
        arrays = {node: coerce(node, value) for node, value in fragments.items()}
        if nodes is None:
            nodes = sorted_nodes(tuple(arrays))
        parts = [arrays.get(node, empty) for node in nodes]
        offsets = offsets_of(np.fromiter(map(len, parts), np.intp, len(parts)))
        return cls(nodes, np.concatenate(parts or [empty]), offsets)

    @classmethod
    def over(
        cls, nodes: Sequence, array: np.ndarray, offsets, error: type
    ) -> "NodeSegments":
        """``array`` cut by ``offsets`` over ``nodes`` in any order.

        Nodes already in canonical order cost nothing and ``array`` is
        referenced; others cost one gather.  Offsets that do not cut
        the array into one stretch per node raise ``error``.
        """
        nodes = tuple(nodes)
        offsets = np.asarray(offsets, dtype=np.intp)
        if not (
            offsets.ndim == 1
            and len(offsets) == len(nodes) + 1
            and offsets[0] == 0
            and offsets[-1] == len(array)
            and (offsets[1:] >= offsets[:-1]).all()
        ):
            raise error(
                f"offsets must rise from 0 to the {len(array)} elements "
                f"in {len(nodes)} steps"
            )
        order = canonical_order(nodes)
        if order is not None:
            order = np.asarray(order, dtype=np.intp)
            lengths = np.diff(offsets)[order]
            array = array[concat_ranges(offsets[:-1][order], lengths)]
            offsets = offsets_of(lengths)
            nodes = tuple(map(nodes.__getitem__, order.tolist()))
        return cls(nodes, array, offsets)

    def sizes(self) -> dict:
        return dict(zip(self.nodes, np.diff(self.offsets).tolist()))

    def select(self, keep: np.ndarray) -> "NodeSegments":
        """The elements under a boolean mask, each staying on its node."""
        return NodeSegments(
            self.nodes, self.array[keep], offsets_of(keep)[self.offsets]
        )


def _as_column(values, what: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ProtocolError(f"{what} must be a one-dimensional array")
    view = array.view()
    view.setflags(write=False)
    return view


class KeyValueArrays(Mapping):
    """A sorted ``{key: value}`` mapping backed by parallel int64 arrays.

    ``keys`` must be strictly increasing (sorted, unique) — the shape
    every aggregation kernel in the package already emits
    (:func:`~repro.queries.aggregate.combine_per_key` returns sorted
    unique keys) — so membership and lookup are ``searchsorted``, and
    consumers that want columns read :attr:`keys_array` /
    :attr:`values_array` without any conversion.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, keys, values) -> None:
        self._keys = _as_column(keys, "keys")
        self._values = _as_column(values, "values")
        if len(self._keys) != len(self._values):
            raise ProtocolError(
                f"{len(self._keys)} keys but {len(self._values)} values"
            )
        if len(self._keys) > 1 and not np.all(np.diff(self._keys) > 0):
            raise ProtocolError(
                "keys must be strictly increasing (sorted and unique)"
            )

    @classmethod
    def empty(cls) -> "KeyValueArrays":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "KeyValueArrays":
        """Build from any ``{int: int}`` mapping (sorts by key)."""
        keys = np.fromiter(mapping.keys(), np.int64, len(mapping))
        values = np.fromiter(mapping.values(), np.int64, len(mapping))
        order = np.argsort(keys, kind="stable")
        return cls(keys[order], values[order])

    # ------------------------------------------------------------------ #
    # columnar surface (the zero-copy path)
    # ------------------------------------------------------------------ #

    @property
    def keys_array(self) -> np.ndarray:
        """The sorted unique keys as a read-only int64 column."""
        return self._keys

    @property
    def values_array(self) -> np.ndarray:
        """Values parallel to :attr:`keys_array` (read-only)."""
        return self._values

    # ------------------------------------------------------------------ #
    # Mapping surface (the dict-compatibility view)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys.tolist())

    def _position(self, key) -> int:
        index = int(np.searchsorted(self._keys, key))
        if index < len(self._keys) and self._keys[index] == key:
            return index
        return -1

    def __contains__(self, key) -> bool:
        try:
            return self._position(key) >= 0
        except (TypeError, ValueError):
            return False

    def __getitem__(self, key) -> int:
        index = self._position(key)
        if index < 0:
            raise KeyError(key)
        return int(self._values[index])

    def items(self):
        return list(zip(self._keys.tolist(), self._values.tolist()))

    def values(self):
        return self._values.tolist()

    def to_dict(self) -> dict:
        """An actual ``{int: int}`` dict (for callers that must have one)."""
        return dict(self.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, KeyValueArrays):
            return np.array_equal(
                self._keys, other._keys
            ) and np.array_equal(self._values, other._values)
        if isinstance(other, Mapping):
            if len(other) != len(self._keys):
                return False
            return all(
                key in other and other[key] == value
                for key, value in self.items()
            )
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # mapping peers compare by content, never hash

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{k}: {v}" for k, v in list(self.items())[:4]
        )
        suffix = ", ..." if len(self) > 4 else ""
        return f"KeyValueArrays({{{preview}{suffix}}}, n={len(self)})"
