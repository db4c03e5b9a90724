"""The sort verifier against the model's definition of a sort.

``is_valid_compute_order`` decides every link at once from one push-up
over the routing index and ``verify_sorted_output`` scans the runs end
to end once; the model (``tests/model/tasks.py``) checks each link's
sides one by one and compares the runs read along the order with
``sorted``.  On random trees — stars, paths, single nodes, asymmetric
links, inner nodes that compute — both must accept the same orders and
the same outputs under any injected fault, and a rejection must name
the check and the node the model finds first.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.suites import standard_plans
from repro.core.sorting.ordering import (
    is_valid_compute_order,
    verify_sorted_output,
)
from repro.engine import run_with_result
from repro.errors import ProtocolError
from repro.registry import get_task
from tests.model.tasks import sorted_along, valid_order
from tests.strategies import shaped_trees

ORDER_KINDS = ("valid", "rotated", "permuted", "swapped", "duplicate", "missing", "extra")
FAULTS = ("none", "swap", "boundary", "missing", "extra", "duplicated", "empty order")


def traversal(draw, tree) -> list:
    """The left-to-right order of a random rooting (or the default one)."""
    roots = [None, *sorted(tree.nodes, key=str)]
    return tree.left_to_right_compute_order(draw(st.sampled_from(roots)))


@st.composite
def candidate_orders(draw):
    tree = draw(shaped_trees())
    order = traversal(draw, tree)
    kind = draw(st.sampled_from(ORDER_KINDS))
    position = st.integers(0, len(order) - 1)
    if kind == "rotated":
        k = draw(position)
        order = order[k:] + order[:k]
    elif kind == "permuted":
        order = draw(st.permutations(order))
    elif kind == "swapped":
        i, j = draw(position), draw(position)
        order[i], order[j] = order[j], order[i]
    elif kind == "duplicate":
        order[draw(position)] = order[draw(position)]
        if draw(st.booleans()):
            order.append(order[draw(position)])
    elif kind == "missing":
        del order[draw(position)]
    elif kind == "extra":
        spare = [*tree.routers, "ghost"]
        order.insert(draw(st.integers(0, len(order))), draw(st.sampled_from(spare)))
    return tree, order


@given(candidate_orders())
@settings(max_examples=400, deadline=None)
def test_order_check_matches_the_model(instance):
    tree, order = instance
    assert is_valid_compute_order(tree, order) == valid_order(tree, order)


def test_every_rooting_of_a_random_tree_is_valid():
    tree = repro.random_tree(40, seed=5)
    for root in tree.nodes:
        order = tree.left_to_right_compute_order(root)
        assert is_valid_compute_order(tree, order)
        assert valid_order(tree, order)


@st.composite
def faulty_outputs(draw):
    """A correct sort along a valid order (duplicates and empty runs
    included), then at most one injected fault."""
    tree = draw(shaped_trees())
    order = traversal(draw, tree)
    values = draw(st.lists(st.integers(-20, 20), max_size=40))
    expected = np.array(values, dtype=np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), min_size=len(order) - 1, max_size=len(order) - 1)))
    runs = np.split(np.sort(expected), cuts)
    fault = draw(st.sampled_from(FAULTS))
    filled = [i for i, run in enumerate(runs) if len(run)]
    if fault == "swap" and filled:
        run = runs[draw(st.sampled_from(filled))]
        i, j = draw(st.integers(0, len(run) - 1)), draw(st.integers(0, len(run) - 1))
        run[[i, j]] = run[[j, i]]
    elif fault == "boundary" and len(filled) > 1:
        k = draw(st.integers(1, len(filled) - 1))
        left, right = runs[filled[k - 1]], runs[filled[k]]
        left[-1], right[0] = right[0], left[-1]
    elif fault == "missing" and filled:
        i = draw(st.sampled_from(filled))
        runs[i] = np.delete(runs[i], draw(st.integers(0, len(runs[i]) - 1)))
    elif fault in ("extra", "duplicated"):
        i = draw(st.integers(0, len(runs) - 1))
        if fault == "extra" or not len(runs[i]):
            added = draw(st.integers(-25, 25))
        else:
            added = runs[i][draw(st.integers(0, len(runs[i]) - 1))]
        runs[i] = np.insert(runs[i], draw(st.integers(0, len(runs[i]))), added)
    outputs = {node: run for node, run in zip(order, runs) if len(run) or draw(st.booleans())}
    if fault == "empty order":
        order = []
    return tree, outputs, order, expected


def rejection(tree, outputs, order, expected) -> str | None:
    """The verifier's message for the first check the outputs fail, read
    off the model's definitions: a valid order, no node outside it, the
    first fall along the order (named at the node holding its lower end),
    then the multiset; ``None`` if they sort ``expected``."""
    if not valid_order(tree, order):
        return f"{list(order)!r} is not a valid traversal order"
    stray = [node for node in outputs if node not in order]
    if stray:
        return f"node {stray[0]!r} holds output but is not in the order"
    previous = None
    for node in order:
        run = [int(x) for x in outputs.get(node, ())]
        if not run:
            continue
        if any(b < a for a, b in zip(run, run[1:])):
            return f"node {node!r} holds an unsorted run"
        if previous is not None and run[0] < previous:
            return f"node {node!r} holds {run[0]} but an earlier node holds {previous}"
        previous = run[-1]
    found = [int(x) for node in order for x in outputs.get(node, ())]
    if found != sorted(map(int, expected)):
        return (
            "sorted output is not a permutation of the input "
            f"({len(found)} vs {len(expected)} elements)"
        )
    return None


@given(faulty_outputs())
@settings(max_examples=400, deadline=None)
def test_sorted_output_check_matches_the_model(instance):
    try:
        verify_sorted_output(*instance)
        message = None
    except ProtocolError as error:
        message = str(error)
    assert (message is None) == sorted_along(*instance)
    assert message == rejection(*instance)


@pytest.mark.parametrize(
    "outputs, message",
    [
        ({"v1": [1, 3], "v2": [2, 1]}, "node 'v2' holds an unsorted run"),
        ({"v1": [1, 3], "v2": [2, 4]}, "node 'v2' holds 2 but an earlier node holds 3"),
        ({"v1": [5], "v3": [1, 2]}, "node 'v3' holds 1 but an earlier node holds 5"),
        ({"v1": [5], "v2": [], "v3": [2, 1]}, "node 'v3' holds an unsorted run"),
    ],
)
def test_the_first_offending_node_is_named(outputs, message):
    tree = repro.star(3)
    arrays = {node: np.array(run, dtype=np.int64) for node, run in outputs.items()}
    expected = np.concatenate(list(arrays.values()))
    with pytest.raises(ProtocolError) as raised:
        verify_sorted_output(tree, arrays, ["v1", "v2", "v3"], expected)
    assert str(raised.value) == message


SORTING_PROTOCOLS = ("wts", "terasort")


@pytest.mark.parametrize("protocol", SORTING_PROTOCOLS)
def test_every_sorting_protocol_verifies_on_the_standard_suite(protocol):
    for plan in standard_plans(r_size=300, s_size=0, seed=3, tasks=["sorting"]):
        report, result = run_with_result(
            "sorting", plan.tree, plan.distribution, protocol=protocol, seed=1
        )
        assert report.rounds >= 1
        assert sorted_along(
            plan.tree,
            result.outputs,
            result.meta["order"],
            plan.distribution.relation("R"),
        )


@pytest.mark.parametrize("stray", ["ghost", "router"])
def test_output_at_a_node_outside_the_order_is_rejected(stray):
    tree = repro.two_level([3, 3])
    distribution = repro.random_distribution(tree, r_size=200, s_size=0, seed=2)
    _, result = run_with_result("sorting", tree, distribution, protocol="wts")
    if stray == "router":
        stray = min(tree.routers)
    # extra data nobody asked for, beside a correct sort
    bad = dataclasses.replace(
        result, outputs={**result.outputs, stray: np.array([10**9])}
    )
    with pytest.raises(ProtocolError) as raised:
        get_task("sorting").verify(tree, distribution, bad)
    assert str(raised.value) == (
        f"node {stray!r} holds output but is not in the order"
    )
