"""``runs_by_target`` against its definition.

A hash partition registers a column as runs: one stable grouping of the
targets, cut wherever the source or the target changes.  Expanded back
to one ``(source, target)`` per element, the runs must give every
target exactly the elements a stable per-element grouping gives it, in
column order, whatever order the sources come in.  Targets come in
``int16`` (sorted as they are) and ``int64``, in range (narrowed to
``int16``) or holding the ``-1`` TreeIntersect gives an unrouted element
(sorted wide), so both of ``group_slices``' sorts run.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.util.grouping import runs_by_target


@st.composite
def columns(draw):
    """``(sources, targets)`` of one column over 1 to 300 nodes."""
    nodes = draw(st.one_of(st.just(1), st.integers(3, 300)))
    size = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = rng.integers(0, nodes, size)
    arrangement = draw(st.sampled_from(["ascending", "descending", "any"]))
    if arrangement != "any":
        sources.sort()
        if arrangement == "descending":
            sources = sources[::-1]
    targets = rng.integers(0, nodes, size)
    if size and draw(st.booleans()):
        targets[rng.integers(0, size)] = -1
    dtype = draw(st.sampled_from([np.int16, np.int64]))
    return sources.astype(np.int16), targets.astype(dtype)


def assert_runs_define_the_grouping(sources, targets) -> None:
    order, run_sources, run_targets, counts = runs_by_target(sources, targets)
    assert sorted(order.tolist()) == list(range(len(sources)))
    assert len(run_sources) == len(run_targets) == len(counts)
    assert (counts > 0).all() and counts.sum() == len(sources)
    # every element rides in a run with its own source and target
    assert np.repeat(run_sources, counts).tolist() == sources[order].tolist()
    expanded = np.repeat(run_targets, counts)
    assert expanded.tolist() == targets[order].tolist()
    # per target: the elements of a stable grouping, in column order
    for target in set(targets.tolist()):
        assert order[expanded == target].tolist() == np.flatnonzero(
            targets == target
        ).tolist()
    # grouped by target, and no cut without a change of source or target
    assert (np.diff(run_targets.astype(np.int64)) >= 0).all()
    same = (run_sources[1:] == run_sources[:-1]) & (run_targets[1:] == run_targets[:-1])
    assert not same.any()


@given(columns())
@settings(max_examples=200, deadline=None)
def test_runs_expand_to_the_stable_per_element_grouping(column):
    assert_runs_define_the_grouping(*column)


def test_an_empty_column_has_no_runs():
    empty = np.empty(0, np.int16)
    order, run_sources, run_targets, counts = runs_by_target(empty, empty)
    assert [len(part) for part in (order, run_sources, run_targets, counts)] == [0] * 4


def test_sources_that_do_not_ascend_cut_runs():
    sources = np.array([3, 3, 0, 3, 3])
    targets = np.array([1, 2, 1, 1, 1])
    order, run_sources, run_targets, counts = runs_by_target(sources, targets)
    assert order.tolist() == [0, 2, 3, 4, 1]
    assert run_sources.tolist() == [3, 0, 3, 3]
    assert run_targets.tolist() == [1, 1, 1, 2]
    assert counts.tolist() == [1, 1, 2, 1]
    assert_runs_define_the_grouping(sources, targets)


def test_a_single_node_is_one_run():
    zeros = np.zeros(5, np.int64)
    _, run_sources, run_targets, counts = runs_by_target(zeros, zeros)
    assert (run_sources.tolist(), run_targets.tolist(), counts.tolist()) == (
        [0],
        [0],
        [5],
    )
