"""Single-pass grouping of parallel arrays by an integer index array.

Every shuffle in the package ends with the same structure: a values
array and a parallel array of small integer group ids (destination
indices, splitter intervals, multicast row ids).  The naive per-group
``values[ids == g]`` loop rescans the full array once per group —
``O(n * p)`` work for ``p`` groups — which is what used to dominate the
simulator's wall-clock.  Grouping with one stable ``argsort`` is
``O(n log n)`` total, after which each group is a contiguous slice
(original element order preserved within each group, because the sort
is stable).

Nothing here is memoized; every caller runs the kernel.  A memo keyed
by the array's content must hash every input it sees, and the inputs do
not repeat often enough to pay for that: a fresh batch repeated 1
grouping in 14, and the connected-components supersteps, which re-group
a static key set, ran no faster with one, in more memory.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np


def index_dtype(count: int) -> type:
    """The dtype index arrays over ``count`` candidates are kept in.

    Node, block and group counts sit far below the ``int16`` range, and
    NumPy's stable sort is a radix sort for 16-bit integers (~7x faster
    than the 64-bit merge sort) on a quarter of the bytes.
    """
    return np.int16 if count < 2**15 else np.int64


def group_slices(
    indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compute the grouping of ``indices`` with one stable argsort.

    Returns ``(order, unique_values, starts, ends)``: permuting any
    parallel array by ``order`` makes group ``k`` (the elements whose
    index equals ``unique_values[k]``) the contiguous slice
    ``[starts[k], ends[k])``, with original relative order preserved.
    """
    indices = np.asarray(indices)
    if indices.dtype.kind in "iu" and indices.itemsize > 2 and indices.size:
        # NumPy's stable sort is a radix sort for narrow integer types,
        # ~7x faster than the 64-bit merge sort; group ids here are node
        # or block counts, far below the int16 range.
        lo, hi = int(indices.min()), int(indices.max())
        if 0 <= lo and hi < 2**15:
            indices = indices.astype(np.int16)
    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    if len(sorted_indices) == 0:
        empty = np.empty(0, dtype=np.intp)
        return order, sorted_indices, empty, empty
    boundaries = np.flatnonzero(np.diff(sorted_indices)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_indices)]))
    return order, sorted_indices[starts], starts, ends


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)`` by one sort and a compare of neighbours.

    Without a ``return_*`` flag NumPy >= 2.3 deduplicates through a hash
    table, ~25x slower than the sort at the sizes the verifiers see.
    Input of any shape is flattened, like ``np.unique`` does.
    """
    ordered = np.sort(values, axis=None)
    if len(ordered) < 2:
        return ordered
    fresh = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


def sorted_runs(
    owners: np.ndarray, keys: np.ndarray, *, stable: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(owner, key)`` pairs and cut them into runs of equal pairs.

    The segmented form of "sort each node's fragment": returns
    ``(order, starts, lengths)`` where ``order`` sorts the parallel
    arrays by owner, then key, and run ``j`` — one distinct ``(owner,
    key)`` pair — is ``order[starts[j] : starts[j] + lengths[j]]``.
    Keys are compared as full ``int64`` values (nothing is packed into
    spare bits): one argsort by key, then a stable pass over the narrow
    owner indices, which NumPy radix-sorts.  ``stable=True``
    additionally keeps equal pairs in their original relative order.
    """
    by_key = np.argsort(keys, kind="stable" if stable else None)
    order = by_key[np.argsort(owners[by_key], kind="stable")]
    sorted_owners, sorted_keys = owners[order], keys[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = sorted_keys[1:] != sorted_keys[:-1]
    fresh[1:] |= sorted_owners[1:] != sorted_owners[:-1]
    starts = np.flatnonzero(fresh)
    return order, starts, np.diff(starts, append=len(order))


def owner_bounds(sorted_owners: np.ndarray, num_owners: int) -> list[int]:
    """Slice bounds per owner: owner ``i`` of an ascending index array
    holds positions ``[bounds[i], bounds[i + 1])``."""
    return np.searchsorted(sorted_owners, np.arange(num_owners + 1)).tolist()


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``arange(starts[i], starts[i] + lengths[i])`` of every
    slice ``i``, concatenated — a CSR gather without a loop over rows."""
    firsts = np.cumsum(lengths) - lengths
    return np.repeat(starts - firsts, lengths) + np.arange(lengths.sum())


def regroup_stretches(
    tables: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge ``(values, owners, starts, ends)`` tables into one column.

    Each table says owner ``owners[i]`` holds ``values[starts[i]:ends[i]]``
    (an owner may appear in several tables, or several times in one).
    Returns one such table plus a count, ``(values, owners, starts,
    ends, stretches)``: the distinct owners ascending, their stretches
    tiling ``values`` — each owner's in table order, then listing order
    — and how many each had.  A single table that already has that
    shape comes back as it is, no copy; otherwise one concatenate of
    the value arrays, one stable sort of the stretches by owner, one
    gather, and no loop over owners.
    """
    if len(tables) == 1:
        values, owners, starts, ends = tables[0]
        if (
            starts[0] == 0
            and ends[-1] == len(values)
            and (starts[1:] == ends[:-1]).all()
            and (owners[1:] > owners[:-1]).all()
        ):
            return values, owners, starts, ends, np.ones(len(owners), np.intp)
    bases = np.cumsum([0] + [len(values) for values, *_ in tables[:-1]])
    owners = np.concatenate([t[1] for t in tables]).astype(np.intp)
    order = np.argsort(owners, kind="stable")
    owners = owners[order]
    lengths = np.concatenate([t[3] - t[2] for t in tables])[order]
    sources = np.concatenate([t[2] + base for t, base in zip(tables, bases)])
    values = np.concatenate([t[0] for t in tables])[
        concat_ranges(sources[order], lengths)
    ]
    firsts = np.flatnonzero(np.diff(owners, prepend=-1))
    stretches = np.diff(firsts, append=len(owners))
    ends = np.cumsum(lengths)[firsts + stretches - 1]
    return values, owners[firsts], ends - np.add.reduceat(lengths, firsts), ends, stretches


def unique_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(matrix, axis=0, return_inverse=True)`` for integer
    matrices, by one ``lexsort`` over the columns — an order of
    magnitude faster than NumPy's structured-dtype row sort."""
    order = np.lexsort(matrix.T[::-1])
    ordered = matrix[order]
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return ordered[fresh], inverse


#: Inert stand-in for the deleted grouping memo, kept only because the
#: benchmark harness still reads its counters and clears it; the next
#: change to the harness removes it.
GROUP_CACHE = SimpleNamespace(hits=0, misses=0, clear=lambda: None)


def _concat_parts(parts: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """Materialize ``concat(ids + base, ...)`` in one output pass.

    The sums are taken in ``int64``: narrow ids plus a running base can
    pass their own dtype's range.
    """
    out = np.empty(sum(len(ids) for ids, _ in parts), dtype=np.int64)
    position = 0
    for ids, base in parts:
        segment = out[position : position + len(ids)]
        np.add(ids, base, out=segment, dtype=np.int64, casting="unsafe")
        position += len(ids)
    return out
