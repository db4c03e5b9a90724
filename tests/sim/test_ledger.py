"""Unit tests for the cost ledger (the Section 2 cost model)."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.sim.cluster import Cluster
from repro.sim.ledger import BITS_PER_ELEMENT, CostLedger
from repro.sim.protocol import ProtocolResult
from repro.topology.builders import mpc_star, star
from tests.link_loads import charge_round, link_loads


@pytest.fixture
def ledger(simple_star):
    return CostLedger(simple_star)


class TestRoundLifecycle:
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
    def test_loads_accumulate_per_edge(self, ledger, simple_star):
        ledger.open_round()
        for edge, count in ((("v1", "w"), 5), (("w", "v2"), 2), (("v1", "w"), 3)):
            ledger.add_link_loads(link_loads(simple_star, {edge: count}))
        ledger.close_round()
        assert ledger.round_loads(0) == {("v1", "w"): 8, ("w", "v2"): 2}

    def test_add_link_loads_outside_round_rejected(self, ledger, simple_star):
        with pytest.raises(ProtocolError, match="no round"):
            ledger.add_link_loads(link_loads(simple_star, {("v1", "w"): 1}))

    def test_add_link_loads_rejects_negative_naming_the_load(
        self, ledger, simple_star
    ):
        ledger.open_round()
        loads = link_loads(simple_star, {("v1", "w"): 4, ("w", "v2"): -2})
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
            ledger.add_link_loads(bad(link_loads(simple_star, {("v1", "w"): 1})))
        assert ledger.round_loads(0) == {}

    def test_round_cost_uses_each_directions_own_bandwidth(self):
        tree = star(2).with_bandwidths({("v1", "w"): 2.0, ("w", "v1"): 8.0})
        assert not tree.is_symmetric
        for edge, cost in ((("v1", "w"), 4.0), (("w", "v1"), 1.0)):
            ledger = CostLedger(tree)
            charge_round(ledger, tree, {edge: 8})
            assert ledger.round_cost(0) == cost
            assert ledger.bottleneck() == (edge, cost)

    def test_open_round_is_costed_live_and_kept_at_close(self, ledger, simple_star):
        ledger.open_round()
        ledger.add_link_loads(link_loads(simple_star, {("v1", "w"): 3}))
        assert ledger.round_cost(0) == ledger.total_cost() == 3.0
        ledger.add_link_loads(link_loads(simple_star, {("v1", "w"): 2}))
        assert ledger.round_cost(0) == 5.0
        ledger.close_round()
        assert ledger.round_cost(0) == ledger.round_cost(-1) == 5.0

    def test_link_loads_is_a_read_only_view(self, ledger, simple_star):
        charge_round(ledger, simple_star, {("v1", "w"): 3})
        stored = ledger.link_loads(0)
        assert stored.dtype == np.int64 and stored.shape == (2, 4)
        assert stored.sum() == 3
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 9

    def test_rounds_and_kept_costs_cannot_drift_when_a_round_body_raises(
        self, simple_star
    ):
        cluster = Cluster(simple_star)
        assert cluster.compute_order[:2] == ("v1", "v2")
        with cluster.round() as ctx:
            ctx.exchange_runs([0], [1], [2], [1, 2], tag="t")
        with pytest.raises(RuntimeError, match="protocol bug"):
            with cluster.round() as ctx:
                ctx.exchange_runs([0], [1], [3], [1, 2, 3], tag="t")
                raise RuntimeError("protocol bug")
        ledger = cluster.ledger
        assert ledger.num_rounds == 1
        with cluster.round() as ctx:
            ctx.exchange_runs([1], [0], [6], [7] * 6, tag="t")
        assert ledger.num_rounds == 2
        # simple_star bandwidths: v1=1, v2=2
        assert [ledger.round_cost(i) for i in range(2)] == [2.0, 6.0]
        assert ledger.total_cost() == 8.0

    def test_round_cost_divides_by_bandwidth(self, simple_star):
        # simple_star bandwidths: v1=1, v2=2, v3=4, v4=8
        ledger = CostLedger(simple_star)
        # 10 / 2 = 5 and 16 / 8 = 2
        charge_round(ledger, simple_star, {("v2", "w"): 10, ("w", "v4"): 16})
        assert ledger.round_cost(0) == 5.0

    def test_total_cost_sums_rounds(self, simple_star):
        ledger = CostLedger(simple_star)
        charge_round(ledger, simple_star, {("v1", "w"): 3})
        charge_round(ledger, simple_star, {("v1", "w"): 4})
        assert ledger.total_cost() == 7.0

    def test_empty_round_costs_zero(self, ledger):
        ledger.open_round()
        ledger.close_round()
        assert ledger.round_cost(0) == 0.0

    def test_infinite_bandwidth_costs_nothing(self):
        tree = mpc_star(3)
        ledger = CostLedger(tree)
        # uplink: infinite bandwidth
        charge_round(ledger, tree, {("v1", "o"): 1000})
        assert ledger.round_cost(0) == 0.0

    def test_bits_conversion(self, simple_star):
        # 10 elements over a bandwidth-2 link cost 5 elements: 320 bits
        ledger = CostLedger(simple_star)
        charge_round(ledger, simple_star, {("v2", "w"): 10})
        result = ProtocolResult.from_ledger("demo", ledger)
        assert result.cost == 5.0
        assert result.cost_bits == 5.0 * BITS_PER_ELEMENT == 320.0


class TestQueries:
    def test_bottleneck(self, simple_star):
        ledger = CostLedger(simple_star)
        # 10/1 and 40/8
        charge_round(ledger, simple_star, {("v1", "w"): 10, ("v4", "w"): 40})
        edge, cost = ledger.bottleneck()
        assert edge == ("v1", "w")
        assert cost == 10.0

    def test_bottleneck_empty(self, ledger):
        assert ledger.bottleneck() is None
