"""``RoundContext.exchange_runs``: a payload laid end to end, one
``(source, target, count)`` triple per run.

The contract under test: one ``exchange_runs`` is observably identical
to one call per triple in order — same per-edge loads, received counts
and per-``(node, tag)`` storage bytes — also when several run records
share a tag with a hash partition's runs in one round, and equal to the
Section-2 model's one transfer per run; validation runs before anything
is registered, for zero-length payloads too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.context import use
from repro.errors import ProtocolError
from repro.obs.audit import auditing
from repro.sim.cluster import Cluster
from repro.util.grouping import group_slices
from repro.topology.builders import two_level

from tests.cluster_identity import assert_clusters_identical, assert_matches_model
from tests.model.rounds import ModelAuditor, ModelCluster
from tests.obs.shuffle import hash_partition
from tests.strategies import tree_topologies


@pytest.fixture
def cluster():
    return Cluster(two_level([2, 3], leaf_bandwidth=2.0, uplink_bandwidth=1.0))


class TestDelivery:
    def test_runs_take_the_payload_in_turn(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_runs(
                [0, 0, 2], [1, 3, 1], [2, 1, 3], [10, 11, 12, 13, 14, 15], tag="x"
            )
        assert cluster.local(order[1], "x").tolist() == [10, 11, 13, 14, 15]
        assert cluster.local(order[3], "x").tolist() == [12]
        assert cluster.received_elements(order[1]) == 5
        assert cluster.received_elements(order[3]) == 1

    def test_a_self_run_is_stored_and_neither_charged_nor_received(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_runs([2], [2], [3], [7, 8, 9], tag="x")
        assert cluster.local(order[2], "x").tolist() == [7, 8, 9]
        assert cluster.received_elements(order[2]) == 0
        assert cluster.ledger.round_loads(0) == {}

    def test_empty_runs_send_nothing(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_runs([0, 1, 0], [4, 4, 3], [0, 2, 0], [5, 6], tag="x")
        assert cluster.local(order[4], "x").tolist() == [5, 6]
        assert cluster.local_size(order[3], "x") == 0
        assert cluster.received_elements(order[4]) == 2

    def test_one_stream_record_per_call(self, cluster):
        with cluster.round() as ctx:
            ctx.exchange_runs([0, 1], [2, 3], [1, 1], [5, 6], tag="x")
            assert len(ctx._unicast_stream) == 1

    def test_empty_payloads_pass_the_checks(self, cluster):
        empty = np.empty(0, np.int64)
        with cluster.round() as ctx:
            ctx.exchange_runs(empty, empty, empty, empty, tag="x")
            ctx.exchange_runs([], [], [], [], tag="x")
            ctx.exchange_runs([0, 1], [1, 2], [0, 0], [], tag="x")
            assert not ctx._unicast_stream
        assert cluster.ledger.round_loads(0) == {}

    def test_narrow_and_unsigned_index_dtypes_accepted(self, cluster):
        order = cluster.compute_order
        with cluster.round() as ctx:
            ctx.exchange_runs(
                np.asarray([0], np.int16),
                np.asarray([1], np.uint8),
                np.asarray([2], np.uint64),
                [5, 6],
                tag="x",
            )
        assert cluster.local(order[1], "x").tolist() == [5, 6]


def _registers_nothing(cluster, message, *args):
    """The call raises ``message`` and leaves the round's streams empty."""
    with pytest.raises(ProtocolError, match=message):
        with cluster.round() as ctx:
            try:
                ctx.exchange_runs(*args, tag="x")
            finally:
                assert not ctx._multicasts and not ctx._unicast_stream


class TestValidation:
    @pytest.mark.parametrize(
        "what, args",
        [
            ("sources", ([0.0], [1], [1], [5])),
            ("targets", ([0], [1.0], [1], [5])),
            ("counts", ([0], [1], [1.0], [5])),
        ],
    )
    def test_float_indices_rejected(self, cluster, what, args):
        _registers_nothing(cluster, f"{what} must be an integer", *args)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_zero_length_float_index_array_rejected(self, cluster, position):
        args = [[], [], [], []]
        args[position] = np.empty(0, np.float64)
        _registers_nothing(cluster, "must be an integer", *args)

    @pytest.mark.parametrize(
        "sources, targets, counts",
        [([0, 1], [1], [1]), ([0], [1, 2], [1]), ([0], [1], [1, 0])],
    )
    @pytest.mark.parametrize("values", [[5], []])
    def test_one_triple_per_run_required(
        self, cluster, sources, targets, counts, values
    ):
        _registers_nothing(
            cluster,
            "one source, one target and one count per run",
            sources,
            targets,
            counts,
            values,
        )

    @pytest.mark.parametrize("index", [-1, 5, 99])
    @pytest.mark.parametrize("count, values", [(1, [5]), (0, [])])
    def test_source_outside_compute_order_rejected(
        self, cluster, index, count, values
    ):
        _registers_nothing(
            cluster,
            rf"source indices span \[{index}, {index}\] but only 5 compute "
            "nodes were given",
            [index],
            [0],
            [count],
            values,
        )

    @pytest.mark.parametrize("index", [-1, 5, 99])
    @pytest.mark.parametrize("count, values", [(1, [5]), (0, [])])
    def test_target_outside_compute_order_rejected(
        self, cluster, index, count, values
    ):
        _registers_nothing(
            cluster,
            rf"target indices span \[{index}, {index}\] but only 5 compute "
            "nodes were given",
            [0],
            [index],
            [count],
            values,
        )

    def test_negative_count_rejected(self, cluster):
        # the counts still sum to the payload's length
        _registers_nothing(
            cluster, "non-negative", [0, 0], [1, 2], [-1, 3], [5, 6]
        )
        _registers_nothing(cluster, "non-negative", [0, 0], [1, 2], [-1, 1], [])

    @pytest.mark.parametrize("counts", [[1, 1], [2, 2], [0, 0]])
    def test_counts_must_cover_the_payload(self, cluster, counts):
        _registers_nothing(
            cluster,
            rf"3 values but the run counts sum to {sum(counts)}",
            [0, 0],
            [1, 2],
            counts,
            [5, 6, 7],
        )

    def test_counts_without_a_payload_rejected(self, cluster):
        _registers_nothing(
            cluster, "0 values but the run counts sum to 2", [0], [1], [2], []
        )

    def test_two_dimensional_arguments_rejected(self, cluster):
        _registers_nothing(cluster, "one-dimensional", [0], [1], [1], [[5]])
        _registers_nothing(cluster, "one-dimensional", [[0]], [1], [1], [5])

    @pytest.mark.parametrize(
        "indices", [[[1]], np.empty((0, 2), dtype=np.int64)]
    )
    @pytest.mark.parametrize("what", ["sources", "targets", "counts"])
    def test_two_dimensional_indices_rejected(self, cluster, what, indices):
        """Also when no element flows: the early return for an empty
        payload comes after every check."""
        args = {
            "sources": np.zeros(len(indices), np.int64),
            "targets": np.zeros(len(indices), np.int64),
            "counts": np.ones(len(indices), np.int64),
            what: indices,
        }
        _registers_nothing(
            cluster, f"{what} must be a one-dim", *args.values(), [1] * len(indices)
        )

    def test_registration_after_the_round_closed_rejected(self, cluster):
        with cluster.round() as ctx:
            pass
        with pytest.raises(ProtocolError, match="already finalized"):
            ctx.exchange_runs([0], [1], [1], [5], tag="x")

@st.composite
def run_rounds(draw):
    """A random round of run records, mixed with one-run records and
    hash partitions (a column cut into runs by ``runs_by_target``) under
    two tags: zero-count runs, self-runs, several records per ``(dst,
    tag)``."""
    tree = draw(tree_topologies(min_nodes=3, max_nodes=10))
    index = st.integers(0, len(tree.compute_nodes) - 1)
    plan = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["runs", "runs", "column", "run"]))
        tag = draw(st.sampled_from(["recv", "other"]))
        if kind == "runs":
            num_runs = draw(st.integers(0, 6))
            triples = [
                (draw(index), draw(index), draw(st.integers(0, 4)))
                for _ in range(num_runs)
            ]
            if triples and draw(st.booleans()):  # a self-run
                triples[0] = (triples[0][0], triples[0][0], triples[0][2])
            size = sum(count for *_, count in triples)
            values = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
            columns = [list(column) for column in zip(*triples)] or [[], [], []]
            plan.append((kind, tag, *columns, values))
        elif kind == "column":
            size = draw(st.integers(0, 6))
            plan.append(
                (
                    kind,
                    tag,
                    draw(st.lists(index, min_size=size, max_size=size)),
                    draw(st.lists(index, min_size=size, max_size=size)),
                    draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)),
                )
            )
        else:
            size = draw(st.integers(0, 4))
            plan.append(
                (
                    kind,
                    tag,
                    draw(index),
                    draw(index),
                    draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)),
                )
            )
    return tree, plan


def _replay(cluster, plan, *, run_by_run=False):
    with cluster.round() as ctx:
        for kind, tag, *args in plan:
            if kind == "column":
                hash_partition(ctx, *args, tag=tag)
            elif kind == "run":
                source, target, values = args
                ctx.exchange_runs([source], [target], [len(values)], values, tag=tag)
            elif not run_by_run:
                ctx.exchange_runs(*args, tag=tag)
            else:  # the definition: one call per triple, in order
                sources, targets, counts, values = args
                offset = 0
                for source, target, count in zip(sources, targets, counts):
                    run = values[offset : offset + count]
                    ctx.exchange_runs([source], [target], [count], run, tag=tag)
                    offset += count
    return cluster


class TestRunsEquivalenceProperty:
    @given(run_rounds())
    @settings(max_examples=100, deadline=None)
    def test_runs_match_the_run_by_run_loop(self, instance):
        """Ledger, received counts and storage bytes, in production code
        on both sides, every round checked by the model's auditor."""
        tree, plan = instance
        with use(auditor=ModelAuditor()):
            as_runs = _replay(Cluster(tree), plan)
            one_by_one = _replay(Cluster(tree), plan, run_by_run=True)
        assert as_runs.ledger.round_loads(0) == one_by_one.ledger.round_loads(0)
        assert_clusters_identical(
            as_runs, one_by_one, a_name="runs", b_name="run-by-run loop"
        )

    @given(run_rounds())
    @settings(max_examples=60, deadline=None)
    def test_runs_match_the_model(self, instance):
        tree, plan = instance
        assert_matches_model(
            _replay(Cluster(tree), plan), _replay(ModelCluster(tree), plan)
        )


class TestRunsAtProtocolSizes:
    """The sorting protocols send thousands of runs carrying hundreds of
    thousands of elements per round; the property above draws a handful
    of tiny ones.  One deterministic round at that scale, under one tag:
    run triples with zero-count runs and self-runs, a hash partition and
    a one-run record."""

    @staticmethod
    def _plan(tree):
        rng = np.random.default_rng(20)
        nodes = len(tree.compute_nodes)
        runs = 4000
        sources = np.sort(rng.integers(0, nodes, runs))  # fragments by source
        targets = rng.integers(0, nodes, runs)
        counts = rng.integers(1, 112, runs)
        counts[rng.random(runs) < 0.1] = 0
        self_runs = rng.random(runs) < 0.05
        targets[self_runs] = sources[self_runs]
        column = 5000
        return [
            ("run", "recv", 7, 3, rng.integers(-99, 99, 300)),
            (
                "runs",
                "recv",
                sources,
                targets,
                counts,
                rng.integers(-(2**40), 2**40, int(counts.sum())),
            ),
            (
                "column",
                "recv",
                rng.integers(0, nodes, column),
                rng.integers(0, nodes, column),
                rng.integers(-99, 99, column),
            ),
        ]

    def test_a_sorting_sized_round_matches_the_model(self):
        tree = two_level([20] * 20)
        plan = self._plan(tree)
        (_, _, sources, targets, counts, payload) = plan[1]
        assert len(counts) == 4000 and 190_000 < len(payload) < 210_000
        assert (counts == 0).any() and (sources == targets).any()
        with auditing(strict=True):
            production = _replay(Cluster(tree), plan)
        assert_matches_model(production, _replay(ModelCluster(tree), plan))


@st.composite
def unicast_parts(draw):
    """One tag's ``(dst_ids, counts, payload)`` run parts, zero-count
    runs included."""
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(0, 30))
        column = st.lists(st.integers(0, 6), min_size=size, max_size=size)
        ids = np.asarray(draw(column), np.int16)
        counts = np.asarray(draw(column), np.intp)
        payload = np.arange(int(counts.sum()), dtype=np.int64) * 7
        parts.append((ids, counts, payload))
    return parts


@given(unicast_parts())
@settings(max_examples=200, deadline=None)
def test_grouping_by_run_is_grouping_the_expanded_elements(parts):
    """The definition: expand every run to one id per element, then one
    stable sort of the elements; every part's layout cuts its payload
    into what that sort gives each destination, parts in turn, and an
    empty destination installs nothing."""
    cluster = Cluster(two_level([4, 3]))
    ids = np.concatenate([np.repeat(ids, counts) for ids, counts, _ in parts])
    payload = np.concatenate([payload for *_, payload in parts])
    order, uniques, starts, ends = group_slices(ids)
    found: dict = {}
    for targets, counts, values in parts:
        layout = cluster.lay_out(np.zeros_like(targets), targets, counts, tag="x")
        for destinations, los, his, source in layout.ship(counts, values)[0]:
            for destination, lo, hi in zip(destinations, los, his):
                if hi > lo:
                    found.setdefault(int(destination), []).extend(source[lo:hi])
    expected = payload[order]
    assert sorted(found) == uniques.tolist()
    for unique, lo, hi in zip(uniques.tolist(), starts, ends):
        assert found[unique] == expected[lo:hi].tolist()
