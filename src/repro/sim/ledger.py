"""Per-round, per-edge communication accounting (the Section 2 cost model).

The ledger records ``|Y_i(e)|`` — the number of elements routed through
each directed edge ``e`` during round ``i`` — and derives the paper's
cost measures:

* ``round_cost(i) = max_e |Y_i(e)| / w_e``,
* ``total_cost = sum_i round_cost(i)`` (in element units),
* the same in bits, as elements x ``bits_per_element`` (the paper's
  "pay a log N factor to translate to bits").

Edges with infinite bandwidth contribute zero cost but their loads are
still recorded, so analyses can inspect raw traffic.

A round is stored as one ``int64 (2, links)`` array in the slot layout
of :class:`~repro.topology.steiner.RoutingIndex` (row 0: ``edge[0] ->
edge[1]`` of every link of ``tree.undirected_edges()``; row 1: the way
back), the form the tree-flow kernels return.  It is costed once, when
it closes, and the float is kept; the edge-keyed dicts of ``round_loads``
and ``bottleneck`` are the presentation, built over the non-zero slots.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError, TopologyError
from repro.topology.tree import DirectedEdge, TreeTopology


class CostLedger:
    """Accumulates per-round directed-edge loads for one topology."""

    def __init__(self, tree: TreeTopology, *, bits_per_element: int = 64) -> None:
        if bits_per_element <= 0:
            raise ProtocolError("bits_per_element must be positive")
        self._index = tree.routing_index  # the slot layout and bandwidths
        self._bits_per_element = bits_per_element
        self._rounds: list[np.ndarray] = []
        self._costs: list[float | None] = []  # per round; None while open
        self._open = False

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def open_round(self) -> None:
        if self._open:
            raise ProtocolError("previous round is still open")
        self._rounds.append(
            np.zeros(self._index.link_bandwidths.shape, dtype=np.int64)
        )
        self._costs.append(None)
        self._open = True

    def add_load(self, edge: DirectedEdge, elements: int) -> None:
        """Charge ``elements`` routed through directed ``edge`` this round."""
        if not self._open:
            raise ProtocolError("no round is open")
        if elements < 0:
            raise ProtocolError(f"negative load {elements}")
        slot = self._index.edge_slot.get(edge)
        if slot is None:
            u, v = edge
            raise TopologyError(f"no edge ({u!r}, {v!r})")
        self._rounds[-1].reshape(-1)[slot] += int(elements)

    def add_link_loads(self, loads: np.ndarray) -> None:
        """Charge ``loads``, the ``int64 (2, links)`` array a tree-flow
        kernel returns: one :meth:`add_load` per slot, checked once."""
        if not self._open:
            raise ProtocolError("no round is open")
        current = self._rounds[-1]
        if getattr(loads, "dtype", None) != np.int64 or loads.shape != current.shape:
            raise ProtocolError(
                f"link loads must be an int64 array of shape {current.shape}, got "
                f"{getattr(loads, 'dtype', type(loads).__name__)} "
                f"{getattr(loads, 'shape', '')}"
            )
        if loads.size and loads.min() < 0:
            raise ProtocolError(f"negative load {int(loads.min())}")
        current += loads

    def close_round(self) -> None:
        if not self._open:
            raise ProtocolError("no round is open")
        self._open = False
        self._costs[-1] = self._cost_of(self._rounds[-1])

    # ------------------------------------------------------------------ #
    # cost queries
    # ------------------------------------------------------------------ #

    @property
    def num_rounds(self) -> int:
        return len(self._rounds)

    @property
    def bits_per_element(self) -> int:
        return self._bits_per_element

    def link_loads(self, index: int) -> np.ndarray:
        """Round ``index`` as stored: a read-only ``(2, links)`` view."""
        view = self._rounds[index].view()
        view.setflags(write=False)
        return view

    def round_loads(self, index: int) -> dict[DirectedEdge, int]:
        """The per-edge element loads of round ``index``, loaded edges only."""
        flat = self._rounds[index].reshape(-1)
        slots = np.flatnonzero(flat)
        names = self._index.slot_edges
        return dict(zip(map(names.__getitem__, slots.tolist()), flat[slots].tolist()))

    def _cost_of(self, loads: np.ndarray) -> float:
        return float((loads / self._index.link_bandwidths).max(initial=0.0))

    def round_cost(self, index: int) -> float:
        """``max_e |Y_i(e)| / w_e`` for round ``index`` (element units)."""
        cost = self._costs[index]
        return self._cost_of(self._rounds[index]) if cost is None else cost

    def total_cost(self) -> float:
        """The paper's ``cost(A)`` in element units."""
        return sum(map(self.round_cost, range(len(self._rounds))))

    def total_cost_bits(self) -> float:
        """``cost(A)`` in bits."""
        return self.total_cost() * self._bits_per_element

    def edge_total(self, edge: DirectedEdge) -> int:
        """Total elements routed through ``edge`` across all rounds."""
        slot = self._index.edge_slot.get(edge)
        if slot is None:
            return 0
        return sum(int(loads.reshape(-1)[slot]) for loads in self._rounds)

    def total_elements(self) -> int:
        """Total element-hops (sum of loads over all edges and rounds)."""
        return sum(int(loads.sum()) for loads in self._rounds)

    def bottleneck(self, index: int | None = None) -> tuple[DirectedEdge, float] | None:
        """The most expensive loaded directed edge (of one round or overall);
        of equally expensive ones, the first in round, then slot order."""
        rounds = self._rounds if index is None else [self._rounds[index]]
        best: tuple[DirectedEdge, float] | None = None
        for loads in rounds:
            slots = np.flatnonzero(loads)
            if not len(slots):
                continue
            costs = (loads / self._index.link_bandwidths).reshape(-1)[slots]
            first = costs.argmax()
            if best is None or costs[first] > best[1]:
                best = (self._index.slot_edges[slots[first]], float(costs[first]))
        return best

    def summary(self) -> dict:
        """A compact dict for reports and benchmark ``extra_info``."""
        return {
            "rounds": self.num_rounds,
            "cost_elements": self.total_cost(),
            "cost_bits": self.total_cost_bits(),
            "total_element_hops": self.total_elements(),
            "per_round_cost": [
                self.round_cost(i) for i in range(self.num_rounds)
            ],
        }
