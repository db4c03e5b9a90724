"""Unit tests for the cost ledger (the Section 2 cost model)."""

import math

import numpy as np
import pytest

from repro.errors import ProtocolError, TopologyError
from repro.sim.cluster import Cluster
from repro.sim.ledger import CostLedger
from repro.topology.builders import mpc_star, star


@pytest.fixture
def ledger(simple_star):
    return CostLedger(simple_star)


def _link_loads(tree, loads: dict) -> np.ndarray:
    """An edge-keyed dict in the ledger's ``(2, links)`` slot layout."""
    index = tree.routing_index
    array = np.zeros(index.link_bandwidths.shape, dtype=np.int64)
    for edge, count in loads.items():
        array.reshape(-1)[index.edge_slot[edge]] = count
    return array


class TestRoundLifecycle:
    def test_cannot_add_outside_round(self, ledger):
        with pytest.raises(ProtocolError, match="no round"):
            ledger.add_load(("v1", "w"), 5)

    def test_cannot_open_twice(self, ledger):
        ledger.open_round()
        with pytest.raises(ProtocolError, match="still open"):
            ledger.open_round()

    def test_cannot_close_unopened(self, ledger):
        with pytest.raises(ProtocolError, match="no round"):
            ledger.close_round()

    def test_round_count(self, ledger):
        for _ in range(3):
            ledger.open_round()
            ledger.close_round()
        assert ledger.num_rounds == 3


class TestAccounting:
    def test_loads_accumulate_per_edge(self, ledger):
        ledger.open_round()
        ledger.add_load(("v1", "w"), 5)
        ledger.add_load(("v1", "w"), 3)
        ledger.close_round()
        assert ledger.round_loads(0) == {("v1", "w"): 8}

    def test_rejects_unknown_edge(self, ledger):
        ledger.open_round()
        with pytest.raises(Exception):
            ledger.add_load(("v1", "v2"), 1)

    def test_rejects_negative_load(self, ledger):
        ledger.open_round()
        with pytest.raises(ProtocolError, match="negative"):
            ledger.add_load(("v1", "w"), -1)

    def test_add_link_loads_equals_sequential(self, simple_star):
        batched, sequential = CostLedger(simple_star), CostLedger(simple_star)
        edges = [("v1", "w"), ("w", "v2"), ("v1", "w")]
        counts = [5, 2, 3]
        batched.open_round()
        for edge, count in zip(edges, counts):
            batched.add_link_loads(_link_loads(simple_star, {edge: count}))
        batched.close_round()
        sequential.open_round()
        for edge, count in zip(edges, counts):
            sequential.add_load(edge, count)
        sequential.close_round()
        assert batched.round_loads(0) == sequential.round_loads(0)
        assert batched.round_loads(0) == {("v1", "w"): 8, ("w", "v2"): 2}

    def test_add_link_loads_outside_round_rejected(self, ledger, simple_star):
        with pytest.raises(ProtocolError, match="no round"):
            ledger.add_link_loads(_link_loads(simple_star, {("v1", "w"): 1}))

    def test_add_link_loads_rejects_negative_naming_the_load(
        self, ledger, simple_star
    ):
        ledger.open_round()
        loads = _link_loads(simple_star, {("v1", "w"): 4, ("w", "v2"): -2})
        with pytest.raises(ProtocolError, match="negative load -2"):
            ledger.add_link_loads(loads)
        assert ledger.round_loads(0) == {}

    @pytest.mark.parametrize(
        "bad",
        [
            lambda loads: loads[:, :-1],
            lambda loads: loads.T,
            lambda loads: loads.reshape(-1),
            lambda loads: loads.astype(np.float64),
            lambda loads: loads.astype(np.int32),
            lambda loads: loads.tolist(),
        ],
        ids=["short", "transposed", "flat", "float", "int32", "list"],
    )
    def test_add_link_loads_rejects_wrong_shape_or_dtype(
        self, ledger, simple_star, bad
    ):
        ledger.open_round()
        with pytest.raises(ProtocolError, match=r"int64 array of shape \(2, 4\)"):
            ledger.add_link_loads(bad(_link_loads(simple_star, {("v1", "w"): 1})))
        assert ledger.round_loads(0) == {}

    def test_add_load_on_a_non_edge_is_the_topology_error(self, ledger):
        ledger.open_round()
        with pytest.raises(TopologyError, match=r"no edge \('v1', 'v2'\)"):
            ledger.add_load(("v1", "v2"), 1)

    def test_round_cost_uses_each_directions_own_bandwidth(self):
        tree = star(2).with_bandwidths({("v1", "w"): 2.0, ("w", "v1"): 8.0})
        assert not tree.is_symmetric
        for edge, cost in ((("v1", "w"), 4.0), (("w", "v1"), 1.0)):
            ledger = CostLedger(tree)
            ledger.open_round()
            ledger.add_load(edge, 8)
            ledger.close_round()
            assert ledger.round_cost(0) == cost
            assert ledger.bottleneck() == (edge, cost)

    def test_open_round_is_costed_live_and_kept_at_close(self, ledger):
        ledger.open_round()
        ledger.add_load(("v1", "w"), 3)
        assert ledger.round_cost(0) == ledger.total_cost() == 3.0
        ledger.add_load(("v1", "w"), 2)
        assert ledger.summary()["per_round_cost"] == [5.0]
        ledger.close_round()
        assert ledger.round_cost(0) == ledger.round_cost(-1) == 5.0

    def test_link_loads_is_a_read_only_view(self, ledger):
        ledger.open_round()
        ledger.add_load(("v1", "w"), 3)
        ledger.close_round()
        stored = ledger.link_loads(0)
        assert stored.dtype == np.int64 and stored.shape == (2, 4)
        assert stored.sum() == 3
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 9

    def test_rounds_and_kept_costs_cannot_drift_when_a_round_body_raises(
        self, simple_star
    ):
        cluster = Cluster(simple_star)
        with cluster.round() as ctx:
            ctx.send("v1", "v2", [1, 2], tag="t")
        with pytest.raises(RuntimeError, match="protocol bug"):
            with cluster.round() as ctx:
                ctx.send("v1", "v2", [1, 2, 3], tag="t")
                raise RuntimeError("protocol bug")
        ledger = cluster.ledger
        assert ledger.num_rounds == len(ledger.summary()["per_round_cost"]) == 1
        with cluster.round() as ctx:
            ctx.send("v2", "v1", [7] * 6, tag="t")
        assert ledger.num_rounds == len(ledger.summary()["per_round_cost"]) == 2
        # simple_star bandwidths: v1=1, v2=2
        assert ledger.summary()["per_round_cost"] == [2.0, 6.0]
        assert ledger.total_cost() == 8.0

    def test_round_cost_divides_by_bandwidth(self, simple_star):
        # simple_star bandwidths: v1=1, v2=2, v3=4, v4=8
        ledger = CostLedger(simple_star)
        ledger.open_round()
        ledger.add_load(("v2", "w"), 10)  # 10 / 2 = 5
        ledger.add_load(("w", "v4"), 16)  # 16 / 8 = 2
        ledger.close_round()
        assert ledger.round_cost(0) == 5.0

    def test_total_cost_sums_rounds(self, simple_star):
        ledger = CostLedger(simple_star)
        ledger.open_round()
        ledger.add_load(("v1", "w"), 3)
        ledger.close_round()
        ledger.open_round()
        ledger.add_load(("v1", "w"), 4)
        ledger.close_round()
        assert ledger.total_cost() == 7.0

    def test_empty_round_costs_zero(self, ledger):
        ledger.open_round()
        ledger.close_round()
        assert ledger.round_cost(0) == 0.0

    def test_infinite_bandwidth_costs_nothing(self):
        tree = mpc_star(3)
        ledger = CostLedger(tree)
        ledger.open_round()
        ledger.add_load(("v1", "o"), 1000)  # uplink: infinite bandwidth
        ledger.close_round()
        assert ledger.round_cost(0) == 0.0

    def test_bits_conversion(self, simple_star):
        ledger = CostLedger(simple_star, bits_per_element=32)
        ledger.open_round()
        ledger.add_load(("v1", "w"), 10)
        ledger.close_round()
        assert ledger.total_cost_bits() == 320.0

    def test_rejects_nonpositive_bits(self, simple_star):
        with pytest.raises(ProtocolError):
            CostLedger(simple_star, bits_per_element=0)


class TestQueries:
    def test_edge_total_across_rounds(self, ledger):
        for amount in (2, 5):
            ledger.open_round()
            ledger.add_load(("v1", "w"), amount)
            ledger.close_round()
        assert ledger.edge_total(("v1", "w")) == 7
        assert ledger.edge_total(("w", "v1")) == 0

    def test_total_elements(self, ledger):
        ledger.open_round()
        ledger.add_load(("v1", "w"), 2)
        ledger.add_load(("w", "v2"), 3)
        ledger.close_round()
        assert ledger.total_elements() == 5

    def test_bottleneck(self, simple_star):
        ledger = CostLedger(simple_star)
        ledger.open_round()
        ledger.add_load(("v1", "w"), 10)  # 10/1
        ledger.add_load(("v4", "w"), 40)  # 40/8
        ledger.close_round()
        edge, cost = ledger.bottleneck()
        assert edge == ("v1", "w")
        assert cost == 10.0

    def test_bottleneck_empty(self, ledger):
        assert ledger.bottleneck() is None

    def test_summary_fields(self, ledger):
        ledger.open_round()
        ledger.add_load(("v1", "w"), 4)
        ledger.close_round()
        summary = ledger.summary()
        assert summary["rounds"] == 1
        assert summary["cost_elements"] == 4.0
        assert summary["per_round_cost"] == [4.0]
