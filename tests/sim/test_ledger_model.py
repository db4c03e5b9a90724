"""The array ledger against the Section-2 model's rounds.

Random trees — asymmetric links, infinite bandwidths, routers and the
single-node tree included — and random rounds mixing every registration
form run twice: through production (loads as one ``(2, links)`` array
from the push-up to the report) and through the model's transfer walk
(``tests/model/rounds.py``).  Every ledger query must agree with ``==``,
also when a superstep driver records the rounds as one step; costs are
sums and quotients of the same integers and bandwidths, so there is no
tolerance to grant.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.iterate import SuperstepDriver
from repro.sim.cluster import Cluster
from repro.topology.tree import TreeTopology
from tests.model.rounds import ModelCluster

WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0, math.inf)


@st.composite
def directed_trees(draw) -> TreeTopology:
    """A random tree with a bandwidth per direction; some internal nodes
    compute, the others route."""
    num_nodes = draw(st.integers(1, 9))
    if num_nodes == 1:
        return TreeTopology({}, ["n0"], name="hyp-single")
    edges: dict = {}
    degree = [0] * num_nodes
    for i in range(1, num_nodes):
        parent = draw(st.integers(0, i - 1))
        forward = draw(st.sampled_from(WIDTHS))
        backward = draw(st.sampled_from((forward, *WIDTHS)))
        edges[(f"n{i}", f"n{parent}")] = forward
        edges[(f"n{parent}", f"n{i}")] = backward
        degree[i] += 1
        degree[parent] += 1
    computes = [
        f"n{i}" for i, d in enumerate(degree) if d == 1 or draw(st.booleans())
    ]
    return TreeTopology(edges, computes, name=f"hyp-directed({num_nodes})")


@st.composite
def ledger_programs(draw):
    """A tree and 1-4 rounds of registrations (no registration: an empty round)."""
    tree = draw(directed_trees())
    index = st.integers(0, len(tree.compute_nodes) - 1)
    values = lambda n: draw(  # noqa: E731
        st.lists(st.integers(0, 999), min_size=n, max_size=n)
    )
    indices = lambda n: draw(st.lists(index, min_size=n, max_size=n))  # noqa: E731
    program = []
    for _ in range(draw(st.integers(1, 4))):
        ops = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["runs", "multicast-runs"]))
            if kind == "runs":
                counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
                ops.append(
                    (
                        kind,
                        indices(len(counts)),
                        indices(len(counts)),
                        counts,
                        values(sum(counts)),
                    )
                )
            else:
                runs = draw(st.integers(1, 3))
                fanout = draw(st.integers(1, 3))
                counts = draw(st.lists(st.integers(0, 3), min_size=runs, max_size=runs))
                ops.append(
                    (
                        kind,
                        indices(runs),
                        [indices(fanout) for _ in range(runs)],
                        counts,
                        values(sum(counts)),
                    )
                )
        program.append(ops)
    return tree, program


def _replay(cluster, program):
    """Run the program on ``cluster``; returns it."""
    for ops in program:
        with cluster.round() as ctx:
            for kind, *args in ops:
                if kind == "runs":
                    ctx.exchange_runs(*args, tag="t")
                else:
                    ctx.exchange_multicast_runs(*args, tag="m")
    return cluster


def assert_bottleneck(found, outcomes, tree) -> None:
    """The model's most expensive charged link, or one tied with it."""
    costs = {
        (i, edge): load / tree.bandwidth(*edge)
        for i, outcome in enumerate(outcomes)
        for edge, load in outcome.loads.items()
    }
    if not costs:
        assert found is None
        return
    worst = max(costs.values())
    assert found is not None and found[1] == worst
    assert any(edge == found[0] and cost == worst for (_, edge), cost in costs.items())


def assert_ledger_matches(ledger, outcomes, tree) -> None:
    assert ledger.num_rounds == len(outcomes)
    for i, outcome in enumerate(outcomes):
        assert ledger.round_loads(i) == outcome.loads, i
        assert ledger.round_cost(i) == outcome.cost, i
        assert_bottleneck(ledger.bottleneck(i), [outcome], tree)
    total = sum(outcome.cost for outcome in outcomes)
    assert ledger.total_cost() == total and type(ledger.total_cost()) is float
    assert_bottleneck(ledger.bottleneck(), outcomes, tree)


@given(ledger_programs())
@settings(max_examples=150, deadline=None)
def test_array_ledger_matches_the_model(instance):
    tree, program = instance
    ledger = _replay(Cluster(tree), program).ledger
    outcomes = _replay(ModelCluster(tree), program).outcomes
    assert_ledger_matches(ledger, outcomes, tree)
    # a superstep driver's step records the same rounds, round for round
    driver = SuperstepDriver(tree)
    with driver.step(
        task="replay", protocol="replay", label="program", phase="protocol",
        input_size=0,
    ):
        _replay(driver.cluster, program)
    assert_ledger_matches(driver.ledger, outcomes, tree)
    (row,) = driver.steps
    assert row.rounds == len(outcomes)
    assert row.cost == sum(outcome.cost for outcome in outcomes)
