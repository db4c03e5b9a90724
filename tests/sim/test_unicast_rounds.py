"""A round's unicast runs, delivered and charged, against the model.

Finalization groups each tag's runs by destination and charges every
run on its own (``RoundContext._finalize_bulk``).  Runs registered
destination-ascending — a hash partition cut by ``runs_by_target`` —
are already grouped, and their payload is installed as registered;
runs registered source-major — a sorting scatter, each source's runs
in target order — are put in order by one gather.  Random rounds mix
both layouts, free run lists, single runs and a partition split over
several calls, on one or two tags, zero-count and self runs included,
on trees of 3 to 300 nodes: the per-``(node, tag)`` columns, the loads,
costs and received counts must be the Section-2 model's.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sim.cluster import Cluster
from repro.util.grouping import runs_by_target
from tests.cluster_identity import assert_clusters_identical, assert_matches_model
from tests.model.rounds import ModelCluster
from tests.strategies import shaped_trees, tree_topologies


def source_major(rng, count: int, size: int) -> tuple:
    """Every source's elements cut into runs by target, sources ascending
    and each source's runs in target order: the sorting scatters'
    layout, destinations falling at every source change."""
    counts = rng.multinomial(size, np.full(count * count, 1 / (count * count)))
    sources = np.repeat(np.arange(count), count)
    targets = np.tile(np.arange(count), count)
    return sources, targets, counts, rng.integers(-99, 99, size)


def partition(rng, count: int, size: int) -> tuple:
    """A hash partition cut into runs by ``runs_by_target``: the runs
    come destination-ascending."""
    order, *runs = runs_by_target(
        np.sort(rng.integers(0, count, size)), rng.integers(0, count, size)
    )
    return (*runs, rng.integers(-99, 99, size)[order])


@st.composite
def unicast_rounds(draw):
    """A tree and a list of ``(tag, sources, targets, counts, values)``
    registrations."""
    tree = draw(
        st.one_of(tree_topologies(min_nodes=3, max_nodes=300), shaped_trees())
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = len(tree.compute_nodes)
    most = draw(st.sampled_from([8, 200, 3000]))
    plan = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(
            st.sampled_from(["run", "partition", "split", "source-major", "runs"])
        )
        tag = draw(st.sampled_from(["a", "b"]))
        size = int(rng.integers(0, most))
        if kind == "runs":
            runs = int(rng.integers(0, 3 * count))
            counts = rng.integers(0, 4, runs) * rng.integers(0, 2, runs)
            ends = (rng.integers(0, count, runs), rng.integers(0, count, runs))
            plan.append((tag, *ends, counts, rng.integers(-99, 99, int(counts.sum()))))
        elif kind == "partition":
            plan.append((tag, *partition(rng, count, size)))
        elif kind == "split":
            # one partition over several calls, cut between runs
            sources, targets, counts, values = partition(rng, count, size)
            cuts = np.sort(rng.integers(0, len(counts) + 1, draw(st.integers(1, 3))))
            bounds = np.cumsum(counts)
            for lo, hi in zip([0, *cuts], [*cuts, len(counts)]):
                first = bounds[lo - 1] if lo else 0
                last = bounds[hi - 1] if hi else 0
                plan.append(
                    (tag, sources[lo:hi], targets[lo:hi], counts[lo:hi], values[first:last])
                )
        elif kind == "source-major":
            plan.append((tag, *source_major(rng, min(count, 40), size)))
        else:
            ends = rng.integers(0, count, (2, 1))
            plan.append((tag, *ends, [size], rng.integers(-99, 99, size)))
    return tree, plan


def replay(cluster, plan):
    with cluster.round() as ctx:
        for tag, *args in plan:
            ctx.exchange_runs(*args, tag=tag)
    return cluster


@given(unicast_rounds())
@settings(max_examples=120, deadline=None)
def test_rounds_of_every_layout_match_the_model(instance):
    tree, plan = instance
    assert_matches_model(replay(Cluster(tree), plan), replay(ModelCluster(tree), plan))


@pytest.mark.parametrize(
    "racks, runs", [([2] * 3, 400), ([4] * 4, 60), ([12] * 12, 2000), ([20] * 20, 200_000)]
)
def test_rounds_of_few_and_many_runs_per_node_match_the_model(racks, runs):
    tree = repro.two_level(racks)
    rng = np.random.default_rng(len(racks))
    count = len(tree.compute_nodes)
    counts = rng.integers(1, 3, runs)
    ends = rng.integers(0, count, (2, runs))
    plan = [("a", *ends, counts, rng.integers(0, 9, int(counts.sum())))]
    assert_matches_model(replay(Cluster(tree), plan), replay(ModelCluster(tree), plan))


def test_an_in_order_tag_is_stored_as_registered():
    """One call whose destinations never fall: ``Cluster.column`` serves
    the registered array itself, and a second tag of the same round
    registered source-major is a copy."""
    tree = repro.two_level([3, 4])
    rng = np.random.default_rng(5)
    count = len(tree.compute_nodes)
    in_order = partition(rng, count, 500)
    scattered = source_major(rng, count, 500)
    cluster = replay(Cluster(tree), [("a", *in_order), ("b", *scattered)])
    owners, values = cluster.column("a")
    assert np.shares_memory(values, in_order[3])
    assert not np.shares_memory(cluster.column("b")[1], scattered[3])
    assert values.tolist() == in_order[3].tolist()
    assert owners.tolist() == np.repeat(in_order[1], in_order[2]).tolist()


@pytest.mark.parametrize("size", [400, 40_000])
def test_a_transposed_registration_delivers_its_in_order_twin(size):
    """The same runs registered source-major and destination-major (the
    payload moved with them) leave identical columns, loads and
    arrivals, whether the runs are short (gathered through an index) or
    long (copied run by run)."""
    tree = repro.two_level([4, 4, 4])
    rng = np.random.default_rng(9)
    sources, targets, counts, values = source_major(rng, len(tree.compute_nodes), size)
    ends = np.cumsum(counts)
    order = np.argsort(targets, kind="stable")
    twin = (
        sources[order],
        targets[order],
        counts[order],
        np.concatenate([values[e - c : e] for e, c in zip(ends[order], counts[order])]),
    )
    assert (np.diff(twin[1]) >= 0).all() and (np.diff(targets) < 0).any()
    transposed = replay(Cluster(tree), [("x", sources, targets, counts, values)])
    in_order = replay(Cluster(tree), [("x", *twin)])
    assert_clusters_identical(transposed, in_order)
    assert transposed.column("x")[1].tolist() == in_order.column("x")[1].tolist()


def test_a_uniform_hash_round_on_2048_nodes_stays_small():
    tree = repro.two_level([32] * 64)
    distribution = repro.random_distribution(
        tree, r_size=40_000, s_size=160_000, seed=1
    )
    repro.run("set-intersection", tree, distribution, protocol="uniform-hash", seed=1)
    tracemalloc.start()
    try:
        repro.run(
            "set-intersection", tree, distribution, protocol="uniform-hash", seed=1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense (2113, 2113) pair matrix alone was 34 MiB, twice per round
    assert peak < 50 * 2**20
