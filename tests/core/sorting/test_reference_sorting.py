"""wTS and TeraSort against their pre-run-record bodies.

Production sorts each fragment first, searches the splitters in it and
registers every round as one run record; ``tests/reference_sorting.py``
holds the bodies that looked every unsorted element up in the splitters
and issued one ``send`` / ``exchange_column`` per node.  Element ``x`` lands in
interval ``#{splitters <= x}`` either way, so everything the model sees
must be equal: outputs, every round's per-edge loads, received counts,
the splitters and the sample count.  Bytes at the intermediate tags may
be ordered differently and are not compared.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.core.sorting.terasort import interval_runs, select_splitters, terasort
from repro.core.sorting.wts import weighted_terasort
from repro.data.distribution import Distribution
from repro.sim import cluster as cluster_module
from repro.topology.builders import two_level

from tests.reference_delivery import run_on
from tests.reference_sorting import (
    reference_select_splitters,
    reference_terasort,
    reference_weighted_terasort,
)
from tests.strategies import tree_topologies


def _run(protocol, tree, distribution, **opts):
    """The protocol's result and the one cluster it ran on."""
    result, (cluster,) = run_on(
        cluster_module.Cluster, protocol, tree, distribution, **opts
    )
    return result, cluster


def _assert_same_sort(production, reference, tree, distribution, **opts):
    ours, our_cluster = _run(production, tree, distribution, **opts)
    theirs, their_cluster = _run(reference, tree, distribution, **opts)
    assert ours.rounds == theirs.rounds
    assert ours.cost == theirs.cost
    for index in range(ours.rounds):
        assert ours.ledger.round_loads(index) == theirs.ledger.round_loads(
            index
        ), f"round {index}"
    for node in tree.compute_nodes:
        assert our_cluster.received_elements(
            node
        ) == their_cluster.received_elements(node), node
    assert ours.outputs.keys() == theirs.outputs.keys()
    for node, run in theirs.outputs.items():
        assert ours.outputs[node].dtype == run.dtype
        assert np.array_equal(ours.outputs[node], run), node
    assert ours.meta.keys() == theirs.meta.keys()
    for key, value in theirs.meta.items():
        if key == "splitters":
            assert ours.meta[key].dtype == value.dtype
            assert np.array_equal(ours.meta[key], value)
        else:
            assert ours.meta[key] == value, key


@st.composite
def duplicate_heavy_instances(draw):
    """A random tree and a placement over a handful of distinct keys
    (whatever the splitters are, many elements equal one), with empty
    nodes and, half the time, one node holding most of the data."""
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    computes = sorted(tree.compute_nodes, key=str)
    sizes = [draw(st.integers(0, 40)) for _ in computes]
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] += draw(st.integers(40, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    num_keys = draw(st.sampled_from([1, 3, 10, 1000]))
    return tree, Distribution(
        {
            node: {"R": rng.integers(-num_keys, num_keys, size)}
            for node, size in zip(computes, sizes)
        }
    )


class TestAgainstTheSendLoopBodies:
    @given(
        instance=duplicate_heavy_instances(),
        seed=st.integers(0, 5),
        gather_shortcut=st.booleans(),
        proportional_split=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_weighted_terasort(
        self, instance, seed, gather_shortcut, proportional_split
    ):
        _assert_same_sort(
            weighted_terasort,
            reference_weighted_terasort,
            *instance,
            seed=seed,
            gather_shortcut=gather_shortcut,
            proportional_split=proportional_split,
        )

    @given(instance=duplicate_heavy_instances(), seed=st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_terasort(self, instance, seed):
        _assert_same_sort(terasort, reference_terasort, *instance, seed=seed)

    @pytest.mark.parametrize("policy", ["zipf", "uniform", "single-heavy"])
    @pytest.mark.parametrize(
        "production, reference",
        [
            (weighted_terasort, reference_weighted_terasort),
            (terasort, reference_terasort),
        ],
    )
    def test_sampled_instance_on_64_leaves(self, production, reference, policy):
        """Large enough that the sample rate is below one: the samples
        are drawn from the fragments as stored, before they are sorted."""
        tree = two_level([8] * 8, uplink_bandwidth=4.0)
        distribution = repro.random_distribution(
            tree, r_size=40_000, s_size=0, policy=policy, seed=5
        )
        extra = {"gather_shortcut": False} if production is weighted_terasort else {}
        _assert_same_sort(
            production, reference, tree, distribution, seed=2, **extra
        )
        result = production(tree, distribution, seed=2, **extra)
        assert 0 < result.meta["num_samples"] < 40_000


def _lookup_runs(fragments, splitters):
    """``(fragment, interval, count)`` of every non-zero entry of the
    per-element lookup's count matrix, row by row."""
    counts = np.asarray(
        [
            np.bincount(
                np.searchsorted(splitters, np.asarray(f, np.int64), side="right"),
                minlength=len(splitters) + 1,
            )
            for f in fragments
        ]
    ).reshape(len(fragments), len(splitters) + 1)
    rows, columns = np.nonzero(counts)
    return rows.tolist(), columns.tolist(), counts[rows, columns].tolist()


@st.composite
def cut_instances(draw, cut_table):
    """Fragments and sorted splitters sized so ``interval_runs`` takes
    one search: the cut table (every fragment at least as long as the
    intervals are many) or the per-element lookup (every fragment
    shorter than that)."""
    splitters = sorted(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5)))
    width = len(splitters) + 1
    lengths = (
        st.integers(width, width + 10) if cut_table else st.integers(0, width - 1)
    )
    fragments = [
        draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
        for size in draw(st.lists(lengths, min_size=1, max_size=6))
    ]
    return fragments, np.asarray(splitters, dtype=np.int64)


class TestIntervalRuns:
    def test_an_element_equal_to_a_splitter_goes_right(self):
        values = np.asarray([5, 1, 3, 3, 9, 3, 0, 7])
        runs = interval_runs(values, np.asarray([5, 0, 3]), np.asarray([3, 3, 7]))
        # sorted in place, fragment by fragment
        assert values.tolist() == [1, 3, 3, 5, 9, 0, 3, 7]
        # interval of x = #{splitters <= x}: 1 -> 0, the 3s and 5 -> 2, 9 -> 3;
        # the empty fragment and the empty interval 1 have no run
        assert [a.tolist() for a in runs] == [
            [0, 0, 0, 2, 2, 2],
            [0, 2, 3, 0, 2, 3],
            [1, 3, 1, 1, 1, 1],
        ]

    def test_no_splitters_is_one_interval(self):
        runs = interval_runs(
            np.asarray([2, 1, 4]), np.asarray([1, 2]), np.empty(0, np.int64)
        )
        assert [a.tolist() for a in runs] == [[0, 1], [0, 0], [1, 2]]

    @pytest.mark.parametrize("cut_table", [True, False])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_runs_are_the_nonzero_per_element_lookup(self, cut_table, data):
        fragments, splitters = data.draw(cut_instances(cut_table))
        lengths = np.asarray([len(f) for f in fragments])
        values = np.asarray(sum(fragments, []), dtype=np.int64)
        assert (len(values) >= len(lengths) * (len(splitters) + 1)) == cut_table
        runs = interval_runs(values, lengths, splitters)
        assert [a.tolist() for a in runs] == list(
            _lookup_runs(fragments, splitters)
        )
        assert values.tolist() == sum(map(sorted, fragments), [])


class TestSelectSplitters:
    @given(
        samples=st.lists(st.integers(-50, 50), max_size=60),
        counts=st.lists(st.integers(0, 9), min_size=1, max_size=12).filter(any),
    )
    @example(samples=list(range(10)), counts=[5, 5, 5])
    @example(samples=[3], counts=[0, 2, 0])
    @settings(max_examples=150, deadline=None)
    def test_one_gather_is_the_loop(self, samples, counts):
        samples = np.sort(np.asarray(samples, dtype=np.int64))
        ours = select_splitters(samples, counts)
        theirs = reference_select_splitters(samples, counts)
        assert ours.dtype == theirs.dtype == np.int64
        assert ours.tolist() == theirs.tolist()


class TestEveryElementSampled:
    """At a sample rate clamped to one, the sample is every element and
    no node builds an RNG: 200 rows on 144 leaves, a serve-sized sort."""

    @pytest.mark.parametrize("protocol", [weighted_terasort, terasort])
    def test_no_rng_at_rate_one(self, monkeypatch, protocol):
        tree = two_level([12] * 12, leaf_bandwidth=2, uplink_bandwidth=4)
        distribution = repro.random_distribution(
            tree, r_size=200, s_size=0, policy="zipf", seed=3
        )

        def no_rng(*args, **kwargs):
            raise AssertionError("an RNG was built at sample rate 1")

        # after the data is drawn: the sort itself builds no generator
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        if protocol is weighted_terasort:
            result = protocol(tree, distribution, seed=1, gather_shortcut=False)
            heavy_total = sum(result.meta["m_sizes"].values())
        else:
            result = protocol(tree, distribution, seed=1)
            heavy_total = 200  # every node samples
        assert result.meta["rho"] == 1.0
        assert result.meta["num_samples"] == heavy_total == 200


class TestOneRecordPerRound:
    """The structural guard: however many nodes hold data, a sorting
    round registers at most one unicast record (a count, not a time)."""

    @pytest.mark.parametrize(
        "protocol, opts",
        [
            ("wts", {}),
            ("wts", {"gather_shortcut": False}),
            ("terasort", {}),
        ],
    )
    @pytest.mark.parametrize("policy", ["zipf", "single-heavy"])
    def test_sorting_rounds_on_a_64_leaf_tree(
        self, monkeypatch, protocol, opts, policy
    ):
        records = []
        finalize = cluster_module.RoundContext._finalize

        def counting_finalize(context):
            records.append(len(context._unicast_stream))
            finalize(context)

        monkeypatch.setattr(
            cluster_module.RoundContext, "_finalize", counting_finalize
        )
        tree = two_level([8] * 8, uplink_bandwidth=4.0)
        distribution = repro.random_distribution(
            tree, r_size=20_000, s_size=0, policy=policy, seed=3
        )
        report = repro.run(
            "sorting", tree, distribution, protocol=protocol, seed=1, **opts
        )
        assert len(records) == report.rounds >= 1
        assert max(records) <= 1
        assert sum(records) >= 1
