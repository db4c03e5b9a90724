"""Single-pass grouping of parallel arrays by an integer index array.

Every shuffle in the package ends with the same structure: a values
array and a parallel array of small integer group ids (destination
indices, splitter intervals).  The naive per-group
``values[ids == g]`` loop rescans the full array once per group —
``O(n * p)`` work for ``p`` groups — which is what used to dominate the
simulator's wall-clock.  Grouping with one stable ``argsort`` is
``O(n log n)`` total, after which each group is a contiguous slice
(original element order preserved within each group, because the sort
is stable).

The sorts by ``(owner, key)`` pairs, by rows and by values
(:func:`sorted_runs`, :func:`row_runs`, :func:`value_runs`,
:func:`unique_inverse`) pack
when they can: if each field's span (``max - min``, in Python ints) and
the positions together need at most 63 bits, one plain ``np.sort`` of
int64 words ``((owner - min) << k | (key - min)) << p | position``
replaces two 64-bit argsorts and their gathers (:func:`packed_words`).
The words order as the pairs do, the position bits make equal pairs
order by position, so the sort is stable, and ``key - min`` is exact: a
key that fits spans less than ``2**63``, so the difference lies in
``[0, 2**63)``.  Wider inputs take the full-width argsorts; the results
are the same either way.

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

from repro.errors import ProtocolError


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
    # group edges, the end of the array included: one pass, no concatenate
    fresh = np.ones(len(order) + 1, dtype=bool)
    np.not_equal(sorted_indices[1:], sorted_indices[:-1], out=fresh[1:-1])
    edges = np.flatnonzero(fresh)
    starts = edges[:-1]
    return order, sorted_indices[starts], starts, edges[1:]


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


#: Bits an int64 word offers a packed sort: the sign bit stays clear,
#: so the words order as the tuples of their fields do.
_WORD_BITS = 63


def packed_words(
    fields: Sequence[np.ndarray], low_bits: int
) -> tuple[np.ndarray, list[int], list[int]] | None:
    """Pack integer columns into one int64 word per element, or ``None``.

    Field ``f`` is stored as ``f - min(f)`` in ``(max - min).bit_length()``
    bits, the first field highest, above ``low_bits`` zero bits the
    caller fills.  Returns ``(words, minima, widths)`` when everything
    fits in 63 bits; then the words order exactly as the field tuples
    do.  ``f - min(f)`` is taken in ``int64`` and cannot overflow: a
    field that fits spans less than ``2**63``, so its true difference
    lies in ``[0, 2**63)``.  Empty columns, ``uint64`` and non-integer
    columns never pack.
    """
    if not len(fields[0]) or any(
        f.dtype.kind not in "iu" or f.dtype == np.uint64 for f in fields
    ):
        return None
    minima, widths = [], []
    for field in fields:
        lo = int(field.min())
        minima.append(lo)
        widths.append((int(field.max()) - lo).bit_length())
    if sum(widths) + low_bits > _WORD_BITS:
        return None
    words = np.subtract(fields[0], minima[0], dtype=np.int64)
    for field, lo, width in zip(fields[1:], minima[1:], widths[1:]):
        words <<= width
        words |= np.subtract(field, lo, dtype=np.int64)
    words <<= low_bits
    return words, minima, widths


def _sorted_positions(
    fields: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, list[int]] | None:
    """A stable lexicographic sort of the field tuples by packed words,
    or ``None`` when they do not fit: ``(order, keys, minima)``, where
    ``order`` lists positions as ``np.lexsort`` would and ``keys[j]``
    packs the fields of element ``order[j]`` less the ``minima``."""
    bits = (len(fields[0]) - 1).bit_length()
    packed = packed_words(fields, bits)
    if packed is None:
        return None
    words, minima, _ = packed
    # positions in the low bits: equal tuples order by position, so one
    # plain sort is stable, and the sorted words carry the order
    words |= np.arange(len(words))
    words.sort()
    order = words & ((1 << bits) - 1)
    words >>= bits
    return order, words, minima


def _run_starts(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of every run of equal neighbours."""
    # run edges, the end of the array included: no concatenate
    fresh = np.ones(len(sorted_keys) + 1, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=fresh[1:-1])
    edges = np.flatnonzero(fresh)
    return edges[:-1], np.diff(edges)


def sorted_runs(
    owners: np.ndarray, keys: np.ndarray, *, stable: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(owner, key)`` pairs and cut them into runs of equal pairs.

    The segmented form of "sort each node's fragment": returns
    ``(order, starts, lengths)`` where ``order`` sorts the parallel
    arrays by owner, then key, and run ``j`` — one distinct ``(owner,
    key)`` pair — is ``order[starts[j] : starts[j] + lengths[j]]``.
    ``stable=True`` additionally keeps equal pairs in their original
    relative order.

    When the owner span, the key span and the positions fit in 63 bits
    (:func:`packed_words`), this is one ``np.sort`` of int64 words
    ``((owner - min) << k | (key - min)) << p | position``: the high
    bits cut the runs, the low ``p`` bits are the order, and the order
    is stable whatever ``stable`` says, because equal pairs compare by
    position.  Otherwise the keys are compared as full ``int64``
    values: one argsort by key, then a stable pass over the narrow
    owner indices, which NumPy radix-sorts.
    """
    packed = _sorted_positions((owners, keys))
    if packed is not None:
        order, pairs, _ = packed
        return order, *_run_starts(pairs)
    return full_width_runs(owners, keys, stable=stable)


def full_width_runs(
    owners: np.ndarray, keys: np.ndarray, *, stable: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sorted_runs` without the packing attempt, for callers that
    already know the pairs and positions do not fit 63 bits: one
    argsort by key, then a stable pass over the owners."""
    by_key = np.argsort(keys, kind="stable" if stable else None)
    order = by_key[np.argsort(owners[by_key], kind="stable")]
    sorted_owners, sorted_keys = owners[order], keys[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = sorted_keys[1:] != sorted_keys[:-1]
    fresh[1:] |= sorted_owners[1:] != sorted_owners[:-1]
    starts = np.flatnonzero(fresh)
    return order, starts, np.diff(starts, append=len(order))


def value_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sorted_runs` for one column: ``(order, starts, lengths)``,
    ``order`` a stable sort of ``values`` and run ``j`` — one distinct
    value, ascending — ``order[starts[j] : starts[j] + lengths[j]]``.

    One packed ``np.sort`` when the span and the positions fit 63 bits;
    a stable argsort otherwise.
    """
    packed = _sorted_positions((values,))
    if packed is not None:
        order, words, _ = packed
        return order, *_run_starts(words)
    order = np.argsort(values, kind="stable")
    return order, *_run_starts(values[order])


def unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for a 1-D integer array,
    from the runs of :func:`value_runs`."""
    order, starts, lengths = value_runs(values)
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.repeat(np.arange(len(starts)), lengths)
    return values[order[starts]], inverse


def runs_by_target(
    sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut a column's ``(source, target)`` pairs into runs by target.

    Returns ``(order, run_sources, run_targets, counts)``: ``values[order]``
    lays a parallel column out run by run, run ``i`` being the next
    ``counts[i]`` elements, all from ``run_sources[i]`` to
    ``run_targets[i]`` — what :meth:`RoundContext.exchange_runs
    <repro.sim.cluster.RoundContext.exchange_runs>` takes.  One stable
    :func:`group_slices` of the targets (a radix sort for narrow
    indices), then a cut wherever the source or the target changes, so
    every target's elements keep their column order whatever order the
    sources come in.  Two one-dimensional columns of one length are
    required: a shorter one would drop elements without a word.
    """
    sources = np.asarray(sources)
    targets = np.asarray(targets)
    for what, column in (("sources", sources), ("targets", targets)):
        if column.ndim != 1:
            raise ProtocolError(f"{what} must be a one-dimensional array")
    if len(sources) != len(targets):
        raise ProtocolError(
            f"{len(sources)} sources but {len(targets)} targets; a hash "
            "partition needs one source and one target per element"
        )
    order, _, group_starts, _ = group_slices(targets)
    sources = sources[order]
    fresh = np.ones(len(order) + 1, dtype=bool)
    np.not_equal(sources[1:], sources[:-1], out=fresh[1:-1])
    fresh[group_starts] = True
    edges = np.flatnonzero(fresh)
    starts = edges[:-1]
    return order, sources[starts], targets[order[starts]], np.diff(edges)


def owner_bounds(sorted_owners: np.ndarray, num_owners: int) -> list[int]:
    """Slice bounds per owner: owner ``i`` of an ascending index array
    holds positions ``[bounds[i], bounds[i + 1])``."""
    return np.searchsorted(sorted_owners, np.arange(num_owners + 1)).tolist()


def concatenated(parts) -> np.ndarray:
    """``np.concatenate(parts)``, minus the copy when there is one part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``arange(starts[i], starts[i] + lengths[i])`` of every
    slice ``i``, concatenated — a CSR gather without a loop over rows."""
    firsts = np.cumsum(lengths) - lengths
    return np.repeat(starts - firsts, lengths) + np.arange(lengths.sum())


#: Mean slice length from which :func:`gather_ranges` copies slice by
#: slice: one slice costs about as much as 30 elements of index array.
_LONG_SLICE = 32


def gather_ranges(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``values[concat_ranges(starts, lengths)]``: the slices
    ``values[starts[i]:starts[i] + lengths[i]]`` end to end.

    Short slices (and no slices) go through that index array.  Long
    ones are copied slice by slice into one new buffer (one
    ``bytes.join`` over memoryviews): the only full-size allocation is
    the result, where the index takes three more (the two index
    temporaries and the index), and fresh full-size pages are what a
    large gather pays for.  The result may be read-only.
    """
    slices = len(lengths)
    if not slices or int(lengths.sum()) < _LONG_SLICE * slices:
        return values[concat_ranges(starts, lengths)]
    values = np.ascontiguousarray(values)
    width = values.itemsize
    buffer = memoryview(values).cast("B")
    firsts = (starts * width).tolist()
    stops = ((starts + lengths) * width).tolist()
    joined = b"".join([buffer[a:b] for a, b in zip(firsts, stops)])
    return np.frombuffer(joined, values.dtype)


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
    values = gather_ranges(
        np.concatenate([t[0] for t in tables]), sources[order], lengths
    )
    firsts = np.flatnonzero(np.diff(owners, prepend=-1))
    stretches = np.diff(firsts, append=len(owners))
    ends = np.cumsum(lengths)[firsts + stretches - 1]
    return values, owners[firsts], ends - np.add.reduceat(lengths, firsts), ends, stretches


def _lexsorted_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, fresh)``: a stable ``np.lexsort`` of the matrix's rows
    and, per sorted row, whether it differs from the one before."""
    order = np.lexsort(matrix.T[::-1])
    ordered = matrix[order]
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, fresh


def row_runs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort an integer matrix's rows and cut them into runs of equal rows.

    Returns ``(order, starts, lengths)``: ``order`` lists the rows
    lexicographically, equal rows in their original order, and run
    ``j`` — one distinct row, ascending — is ``order[starts[j] :
    starts[j] + lengths[j]]``.  This is how a replication is cut into
    multicast runs: run ``j`` carries the elements whose row (source,
    destinations) is ``matrix[order[starts[j]]]``.

    When the columns' spans and the positions fit 63 bits
    (:func:`packed_words`), this is one ``np.sort`` of words packing
    every column above the position, as in :func:`sorted_runs`;
    otherwise one ``np.lexsort`` over the columns.
    """
    packed = _sorted_positions(matrix.T)
    if packed is not None:
        order, words, _ = packed
        return order, *_run_starts(words)
    order, fresh = _lexsorted_rows(matrix)
    starts = np.flatnonzero(fresh)
    return order, starts, np.diff(starts, append=len(order))


def unique_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(matrix, axis=0, return_inverse=True)`` for integer
    matrices, by one ``lexsort`` over the columns — an order of
    magnitude faster than NumPy's structured-dtype row sort."""
    order, fresh = _lexsorted_rows(matrix)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return matrix[order[fresh]], inverse


#: Inert stand-in for the deleted grouping memo, kept only because the
#: benchmark harness still reads its counters and clears it; the next
#: change to the harness removes it.
GROUP_CACHE = SimpleNamespace(hits=0, misses=0, clear=lambda: None)

