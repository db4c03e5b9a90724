"""``group_slices`` and the sorts of ``sorted_runs``, ``row_runs`` and
``unique_inverse``.

Every round's grouping runs the kernel on the arrays it is given (no
memo), so these pin results: the grouping against the per-group mask
it replaced, and ``sorted_runs``, ``row_runs`` and ``unique_inverse``
against ``np.lexsort`` and ``np.unique`` on both sides of the packed
sort's 63-bit fit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.util import grouping
from repro.util.grouping import (
    group_slices,
    packed_words,
    row_runs,
    sorted_runs,
    unique_inverse,
    unique_rows,
)

INT64 = np.iinfo(np.int64)


def _assert_groupings_equal(found, expected) -> None:
    for part, want in zip(found, expected, strict=True):
        assert np.array_equal(part, want)


@given(
    hnp.arrays(
        st.sampled_from([np.int16, np.int64, np.uint8, np.intp]),
        st.integers(0, 3000),
        elements=st.integers(0, 40),
    )
)
@settings(max_examples=100, deadline=None)
def test_each_group_is_its_mask_in_element_order(indices):
    order, uniques, starts, ends = group_slices(indices)
    assert uniques.tolist() == np.unique(indices).tolist()
    for value, lo, hi in zip(uniques.tolist(), starts.tolist(), ends.tolist()):
        assert order[lo:hi].tolist() == np.flatnonzero(indices == value).tolist()
    assert ends.tolist()[-1:] == ([len(indices)] if len(indices) else [])


@pytest.mark.parametrize("dtype", [np.int64, np.intp, np.int16])
def test_wide_and_narrow_ids_group_alike(dtype):
    indices = np.random.default_rng(3).integers(0, 13, size=5000)
    _assert_groupings_equal(
        group_slices(indices.astype(dtype)), group_slices(indices)
    )


def test_ids_past_the_int16_range_group_exactly():
    indices = np.array([2**40, 3, 2**40, -1, 3])
    order, uniques, starts, ends = group_slices(indices)
    assert uniques.tolist() == [-1, 3, 2**40]
    assert order.tolist() == [3, 1, 4, 0, 2]
    assert (starts.tolist(), ends.tolist()) == ([0, 1, 3], [1, 3, 5])


def test_an_empty_array_has_no_groups():
    order, uniques, starts, ends = group_slices(np.empty(0, np.int64))
    assert [len(part) for part in (order, uniques, starts, ends)] == [0] * 4


def _span_bits(column: np.ndarray) -> int:
    return (int(column.max()) - int(column.min())).bit_length() if len(column) else 0


@st.composite
def owner_key_columns(draw):
    """Parallel int16 owners and int64 keys with repeated pairs.  Keys
    are narrow (negative ones included), reach the int64 extremes, or
    span exactly what leaves the owner, key and position bits at 63 or
    at 64 — one bit inside or outside the packed sort's fit."""
    n = draw(st.integers(0, 40))
    spread = draw(st.sampled_from([0, 3, 2**16 - 1]))
    low = draw(st.integers(-(2**15), 2**15 - 1 - spread))
    owners = np.asarray(
        draw(st.lists(st.integers(low, low + spread), min_size=n, max_size=n)),
        np.int16,
    )
    kind = draw(st.sampled_from(["narrow", "extreme", "fit edge"]))
    if kind == "narrow":
        pool = st.integers(-5, 5)
    elif kind == "extreme":
        pool = st.sampled_from([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max])
    else:
        width = draw(st.sampled_from([63, 64])) - _span_bits(owners)
        width -= (max(n, 1) - 1).bit_length()
        lo = draw(st.integers(INT64.min, INT64.max - (2**width - 1)))
        middle = draw(st.integers(lo, lo + 2**width - 1))
        pool = st.sampled_from([lo, middle, lo + 2**width - 1])
    keys = np.asarray(draw(st.lists(pool, min_size=n, max_size=n)), np.int64)
    if kind == "fit edge" and n >= 2:
        keys[:2] = lo, lo + 2**width - 1  # the whole span, wherever they sort
        draw(st.randoms()).shuffle(keys)
    return owners, keys


def _reference_runs(owners, keys):
    """``(order, starts, lengths)`` by ``np.lexsort`` and a Python scan."""
    order = np.lexsort((np.arange(len(keys)), keys, owners))
    pairs = list(zip(owners[order].tolist(), keys[order].tolist()))
    starts = [i for i in range(len(pairs)) if not i or pairs[i] != pairs[i - 1]]
    return order, starts, np.diff(starts + [len(pairs)]).tolist()


@given(owner_key_columns())
@settings(max_examples=300, deadline=None)
def test_sorted_runs_is_a_stable_lexsort(columns):
    owners, keys = columns
    order, starts, lengths = _reference_runs(owners, keys)
    found = sorted_runs(owners, keys, stable=True)
    assert found[0].tolist() == order.tolist()
    assert (found[1].tolist(), found[2].tolist()) == (starts, lengths)
    unstable = sorted_runs(owners, keys)
    assert sorted(unstable[0].tolist()) == list(range(len(keys)))
    assert owners[unstable[0]].tolist() == owners[order].tolist()
    assert keys[unstable[0]].tolist() == keys[order].tolist()
    assert (unstable[1].tolist(), unstable[2].tolist()) == (starts, lengths)


@given(owner_key_columns(), st.sampled_from([np.int16, np.int32, np.int64]))
@settings(max_examples=300, deadline=None)
def test_unique_inverse_is_np_unique(columns, dtype):
    owners, keys = columns
    for values in (owners, keys if dtype == np.int64 else keys.astype(dtype)):
        found, inverse = unique_inverse(values)
        expected, expected_inverse = np.unique(values, return_inverse=True)
        assert found.dtype == expected.dtype and found.shape == expected.shape
        assert found.tolist() == expected.tolist()
        assert inverse.dtype == expected_inverse.dtype
        assert inverse.tolist() == expected_inverse.tolist()


def _spy_on_packing(monkeypatch) -> list:
    """Record, per packing attempt, whether the words fit."""
    fits, real = [], grouping.packed_words

    def spy(fields, low_bits):
        packed = real(fields, low_bits)
        fits.append(packed is not None)
        return packed

    monkeypatch.setattr(grouping, "packed_words", spy)
    return fits


@pytest.mark.parametrize("bits, packs", [(63, True), (64, False)])
def test_the_fit_picks_the_path_of_sorted_runs(monkeypatch, bits, packs):
    # 4096 positions (12 bits), owners 0..63 (6 bits), keys the rest
    # (each pair twice, so runs have two elements)
    owners = (np.arange(4096) % 64).astype(np.int16)
    width = bits - 12 - 6
    keys = np.random.default_rng(bits).integers(0, 2**width, 4096) - 2**40
    keys[:2] = -(2**40), 2**width - 1 - 2**40
    keys[2048:] = keys[:2048]
    fits = _spy_on_packing(monkeypatch)
    order, starts, lengths = _reference_runs(owners, keys)
    found = sorted_runs(owners, keys, stable=True)
    assert fits == [packs]
    assert found[0].tolist() == order.tolist()
    assert (found[1].tolist(), found[2].tolist()) == (starts, lengths)


@pytest.mark.parametrize("bits, packs", [(63, True), (64, False)])
def test_the_fit_picks_the_path_of_unique_inverse(monkeypatch, bits, packs):
    # 4096 positions (12 bits), values the rest, each value twice
    values = np.random.default_rng(bits).integers(0, 2 ** (bits - 12), 4096)
    values[:2] = 0, 2 ** (bits - 12) - 1
    values[2048:] = values[:2048]
    values += INT64.min
    fits = _spy_on_packing(monkeypatch)
    found, inverse = unique_inverse(values)
    expected, expected_inverse = np.unique(values, return_inverse=True)
    assert fits == [packs]
    assert found.tolist() == expected.tolist()
    assert inverse.tolist() == expected_inverse.tolist()


def test_columns_that_never_pack():
    assert packed_words((np.empty(0, np.int64),), 0) is None
    assert packed_words((np.arange(3, dtype=np.uint64),), 0) is None
    assert packed_words((np.arange(3.0),), 0) is None
    assert packed_words((np.arange(3, dtype=np.uint32),), 0) is not None


#: Bits a column of each dtype can span.
_CAP = {np.int16: 16, np.int64: 64}


@st.composite
def row_matrices(draw):
    """An int16 or int64 matrix of 1-8 columns and 0-40 rows with
    repeated rows.  Its columns are narrow, reach the dtype's extremes,
    or span exactly what leaves the column and position bits at 63 or
    64 — one bit inside or outside the packed sort's fit."""
    dtype = draw(st.sampled_from([np.int16, np.int64]))
    info, cap = np.iinfo(dtype), _CAP[dtype]
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["narrow", "extreme", "fit edge"]))
    if kind == "fit edge":
        remaining = draw(st.sampled_from([63, 64])) - (max(n, 1) - 1).bit_length()
        k = draw(st.integers(-(-remaining // cap), 8))
        widths = []
        for left in range(k - 1, 0, -1):
            width = draw(
                st.integers(max(0, remaining - cap * left), min(cap, remaining))
            )
            widths.append(width)
            remaining -= width
        widths.append(remaining)
    else:
        k = draw(st.integers(1, 8))
    columns = []
    for j in range(k):
        if kind == "narrow":
            pool = st.integers(-2, 2)
        elif kind == "extreme":
            lo, hi = int(info.min), int(info.max)
            pool = st.sampled_from([lo, lo + 1, -1, 0, hi])
        else:
            span = 2 ** widths[j] - 1
            lo = draw(st.integers(int(info.min), int(info.max) - span))
            pool = st.sampled_from([lo, lo + span // 2, lo + span])
        column = np.asarray(draw(st.lists(pool, min_size=n, max_size=n)), dtype)
        if kind == "fit edge" and n >= 2:
            column[:2] = lo, lo + span  # the whole span, wherever they sort
            draw(st.randoms()).shuffle(column)
        columns.append(column)
    return np.column_stack(columns) if n else np.empty((0, k), dtype)


def _reference_row_runs(matrix):
    """``(order, starts, lengths)`` by ``np.lexsort`` and a Python scan."""
    order = np.lexsort((np.arange(len(matrix)), *matrix.T[::-1]))
    rows = [tuple(row) for row in matrix[order].tolist()]
    starts = [i for i in range(len(rows)) if not i or rows[i] != rows[i - 1]]
    return order.tolist(), starts, np.diff(starts + [len(rows)]).tolist()


@given(row_matrices())
@settings(max_examples=300, deadline=None)
def test_row_runs_is_a_stable_lexsort(matrix):
    order, starts, lengths = row_runs(matrix)
    assert (order.tolist(), starts.tolist(), lengths.tolist()) == (
        _reference_row_runs(matrix)
    )
    if len(matrix):
        distinct, inverse = unique_rows(matrix)
        assert matrix[order[starts]].tolist() == distinct.tolist()
        runs = np.repeat(np.arange(len(starts)), lengths)
        assert inverse[order].tolist() == runs.tolist()


@pytest.mark.parametrize("bits, packs", [(63, True), (64, False)])
@pytest.mark.parametrize(
    "dtype, widths", [(np.int16, (16, 16, 16)), (np.int64, (6, 20))]
)
def test_the_fit_picks_the_path_of_row_runs(monkeypatch, bits, packs, dtype, widths):
    # 4096 positions (12 bits), the given column widths, and a last
    # column taking the rest; each row twice
    rng = np.random.default_rng(bits)
    widths = (*widths, bits - 12 - sum(widths))
    low = int(np.iinfo(dtype).min)
    matrix = np.empty((4096, len(widths)), dtype)
    for j, width in enumerate(widths):
        matrix[:, j] = low + rng.integers(0, 2**width, 4096)
        matrix[:2, j] = low, low + 2**width - 1
    matrix[2048:] = matrix[:2048]
    fits = _spy_on_packing(monkeypatch)
    order, starts, lengths = row_runs(matrix)
    assert fits == [packs]
    assert (order.tolist(), starts.tolist(), lengths.tolist()) == (
        _reference_row_runs(matrix)
    )
    assert set(lengths.tolist()) == {2}
