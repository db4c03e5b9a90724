"""Tests for the exception hierarchy and the ProtocolResult container."""

import pytest

from repro.errors import (
    AnalysisError,
    DistributionError,
    PackingError,
    ProtocolError,
    ReproError,
    TopologyError,
)
from repro.sim.ledger import CostLedger
from repro.sim.protocol import ProtocolResult
from repro.topology.builders import star
from tests.link_loads import charge_round


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            TopologyError,
            DistributionError,
            ProtocolError,
            PackingError,
            AnalysisError,
        ],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise PackingError("boom")


class TestProtocolResult:
    def make_ledger(self):
        tree = star(2)
        ledger = CostLedger(tree)
        charge_round(ledger, tree, {("v1", "w"): 10})
        charge_round(ledger, tree, {})
        return ledger

    def test_from_ledger_derives_fields(self):
        result = ProtocolResult.from_ledger("demo", self.make_ledger())
        assert result.protocol == "demo"
        assert result.rounds == 2
        assert result.cost == 10.0
        assert result.cost_bits == 640.0

    def test_outputs_and_meta_default_empty(self):
        result = ProtocolResult.from_ledger("demo", self.make_ledger())
        assert result.outputs == {}
        assert result.meta == {}

    def test_describe_mentions_rounds_and_cost(self):
        result = ProtocolResult.from_ledger("demo", self.make_ledger())
        text = result.describe()
        assert "rounds=2" in text
        assert "10" in text
