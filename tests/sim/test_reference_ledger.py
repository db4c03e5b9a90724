"""The array ledger against the dict-per-round ledger it replaced.

Random trees — asymmetric links, infinite bandwidths, routers and the
single-node tree included — and random rounds mixing every registration
form run twice: through production (loads as one ``(2, links)`` array
from the push-up to the report) and under
``tests/reference_ledger.reference_model`` (the old unpacking loops and
the old dict ledger).  Every ledger query must agree with ``==``; costs
are sums and quotients of the same integers and bandwidths, so there is
no tolerance to grant.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.iterate import SuperstepDriver
from repro.sim.cluster import Cluster
from repro.topology.tree import TreeTopology
from tests.reference_ledger import reference_model

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
            kind = draw(
                st.sampled_from(["send", "column", "runs", "multicast-column"])
            )
            size = draw(st.integers(0, 8))
            if kind == "send":
                ops.append((kind, draw(index), draw(index), values(size)))
            elif kind == "column":
                ops.append((kind, indices(size), indices(size), values(size)))
            elif kind == "runs":
                counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
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
                groups = draw(st.integers(1, 3))
                fanout = draw(st.integers(1, 3))
                ops.append(
                    (
                        kind,
                        indices(groups),
                        draw(
                            st.lists(
                                st.integers(0, groups - 1),
                                min_size=size,
                                max_size=size,
                            )
                        ),
                        [indices(fanout) for _ in range(groups)],
                        values(size),
                    )
                )
        program.append(ops)
    return tree, program


def _replay(tree, program):
    """Run the program on a fresh cluster, then absorb its ledger into a
    superstep driver's master: ``(the cluster's ledger, the master's)``."""
    cluster = Cluster(tree)
    order = cluster.compute_order
    for ops in program:
        with cluster.round() as ctx:
            for kind, *args in ops:
                if kind == "send":
                    src, dst, payload = args
                    ctx.send(order[src], order[dst], payload, tag="t")
                elif kind == "column":
                    ctx.exchange_column(*args, tag="t")
                elif kind == "runs":
                    ctx.exchange_runs(*args, tag="t")
                else:
                    ctx.exchange_multicast_column(*args, tag="m")
    driver = SuperstepDriver(tree)
    driver._absorb(cluster.ledger)
    return cluster.ledger, driver.ledger


def _attains(reference, rounds, edge, cost, tree) -> bool:
    return any(
        reference.round_loads(i).get(edge, 0) / tree.bandwidth(*edge) == cost
        and reference.round_loads(i).get(edge, 0) > 0
        for i in rounds
    )


def assert_same_bottleneck(found, expected, reference, rounds, tree) -> None:
    """Same cost; the same edge whenever the maximum is unique.  Among
    equally expensive edges the dict ledger named the first *charged*,
    the array ledger names the first *slot* — both attain the cost."""
    if expected is None:
        assert found is None
        return
    assert found is not None and found[1] == expected[1]
    assert _attains(reference, rounds, found[0], expected[1], tree)
    ties = {
        edge
        for i in rounds
        for edge in reference.round_loads(i)
        if _attains(reference, [i], edge, expected[1], tree)
    }
    if len(ties) == 1:
        assert found[0] == expected[0]


def assert_same_ledger(found, expected, tree) -> None:
    assert found.num_rounds == expected.num_rounds
    rounds = range(expected.num_rounds)
    for i in rounds:
        assert found.round_loads(i) == expected.round_loads(i), i
        assert found.round_cost(i) == expected.round_cost(i), i
        assert_same_bottleneck(
            found.bottleneck(i), expected.bottleneck(i), expected, [i], tree
        )
    assert found.total_cost() == expected.total_cost()
    assert found.total_cost_bits() == expected.total_cost_bits()
    assert type(found.total_cost()) is type(expected.total_cost())
    assert_same_bottleneck(
        found.bottleneck(), expected.bottleneck(), expected, rounds, tree
    )
    for edge in [*tree.directed_edges, ("n0", "n0"), ("nowhere", "n0")]:
        assert found.edge_total(edge) == expected.edge_total(edge), edge
        assert type(found.edge_total(edge)) is int
    assert found.total_elements() == expected.total_elements()
    assert type(found.total_elements()) is int
    assert found.summary() == expected.summary()


@given(ledger_programs())
@settings(max_examples=150, deadline=None)
def test_array_ledger_matches_the_dict_ledger(instance):
    tree, program = instance
    ledger, master = _replay(tree, program)
    with reference_model():
        reference_ledger, reference_master = _replay(tree, program)
    assert_same_ledger(ledger, reference_ledger, tree)
    assert_same_ledger(master, reference_master, tree)
    # an absorbed ledger is the inner one, round for round
    assert_same_ledger(master, reference_ledger, tree)


def test_reference_model_really_runs_the_dict_ledger():
    """The differential above is vacuous unless the swap takes."""
    from tests.reference_ledger import ReferenceCostLedger

    tree = TreeTopology.from_undirected({("a", "b"): 2.0}, ["a", "b"])
    with reference_model():
        ledger, master = _replay(tree, [[("send", 0, 1, [1, 2, 3])]])
    assert type(ledger) is type(master) is ReferenceCostLedger
    assert ledger._rounds == [{("a", "b"): 3}]
    assert type(Cluster(tree).ledger) is not ReferenceCostLedger
