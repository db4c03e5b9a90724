"""Common result type returned by every protocol in the library."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.sim.ledger import BITS_PER_ELEMENT, CostLedger


@dataclass
class ProtocolResult:
    """Outcome of one protocol execution on one instance.

    Attributes
    ----------
    protocol:
        Human-readable protocol name (e.g. ``"tree-intersect"``).
    rounds:
        Number of communication rounds executed.
    cost:
        Model cost in element units: ``sum_i max_e |Y_i(e)| / w_e``.
    cost_bits:
        The same cost in bits (elements x :data:`BITS_PER_ELEMENT`).
    ledger:
        The full per-round, per-edge accounting, for deeper analysis.
    outputs:
        Task-specific per-node outputs (e.g. the intersection elements a
        node emitted, the sorted run it holds, or its output-pair count).
    meta:
        Protocol-specific diagnostics (partition used, squares assigned,
        splitters chosen, strategy selected, ...).
    """

    protocol: str
    rounds: int
    cost: float
    ledger: CostLedger
    outputs: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_ledger(
        cls,
        protocol: str,
        ledger: CostLedger,
        *,
        outputs: dict | None = None,
        meta: dict | None = None,
    ) -> "ProtocolResult":
        return cls(
            protocol=protocol,
            rounds=ledger.num_rounds,
            cost=ledger.total_cost(),
            ledger=ledger,
            outputs=outputs or {},
            meta=meta or {},
        )

    @property
    def cost_bits(self) -> float:
        return self.cost * BITS_PER_ELEMENT

    def describe(self) -> str:
        return (
            f"{self.protocol}: rounds={self.rounds}, "
            f"cost={self.cost:.3f} elements ({self.cost_bits:.0f} bits)"
        )
