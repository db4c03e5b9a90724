"""The ledger as a dict per round: the reference model of the array ledger.

Production (:class:`repro.sim.ledger.CostLedger`) stores a round as one
``int64 (2, links)`` array, takes a kernel's whole result with one
``add_link_loads`` and costs the round once, at ``close_round``, as
``(loads / link_bandwidths).max()``.  This is what it replaced, kept
word for word: :class:`ReferenceCostLedger` (a ``dict[DirectedEdge,
int]`` per round, one ``tree.bandwidth`` lookup per charged edge, the
cost recomputed edge by edge on every query) and
:func:`reference_push_loads` (the two Python loops that unpacked the
pushed-up tree-difference arrays into that dict).  They need NumPy and a
``TreeTopology`` and nothing else.

:func:`reference_model` swaps both in under the production finalizers,
so a whole round — ``send``, ``exchange_column``, ``exchange_runs``,
``exchange_multicast_column``, a superstep driver's ``_absorb`` — runs
through the kernels up to the push-up and through the old code from
there to the report; ``tests/sim/test_reference_ledger.py`` compares
every ledger query with ``==``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.topology.tree import DirectedEdge, TreeTopology


class ReferenceCostLedger:
    """Accumulates per-round directed-edge loads for one topology.

    The pre-array ``CostLedger``, verbatim: a dict per round, every
    charge validated by a ``tree.bandwidth`` lookup, every cost query a
    walk over the dict.  The last two methods are the adapters that let
    the production finalizers drive it (see :func:`reference_model`).
    """

    def __init__(self, tree: TreeTopology, *, bits_per_element: int = 64) -> None:
        if bits_per_element <= 0:
            raise ProtocolError("bits_per_element must be positive")
        self._tree = tree
        self._bits_per_element = bits_per_element
        self._rounds: list[dict[DirectedEdge, int]] = []
        self._open = False

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def open_round(self) -> None:
        if self._open:
            raise ProtocolError("previous round is still open")
        self._rounds.append({})
        self._open = True

    def add_load(self, edge: DirectedEdge, elements: int) -> None:
        """Charge ``elements`` routed through directed ``edge`` this round."""
        if not self._open:
            raise ProtocolError("no round is open")
        if elements < 0:
            raise ProtocolError(f"negative load {elements}")
        u, v = edge
        self._tree.bandwidth(u, v)  # validates the edge exists
        current = self._rounds[-1]
        current[edge] = current.get(edge, 0) + int(elements)

    def add_loads(self, edges, counts) -> None:
        """Charge a batch of per-edge loads into the open round.

        ``edges`` and ``counts`` are parallel iterables; equivalent to
        calling :meth:`add_load` once per pair, but the open-round check
        happens once and the hot loop stays tight — this is how the
        round finalizer charges a whole round's grouped transfers.
        """
        if not self._open:
            raise ProtocolError("no round is open")
        current = self._rounds[-1]
        bandwidth = self._tree.bandwidth
        for edge, elements in zip(edges, counts):
            if elements < 0:
                raise ProtocolError(f"negative load {elements}")
            bandwidth(*edge)  # validates the edge exists
            current[edge] = current.get(edge, 0) + int(elements)

    def close_round(self) -> None:
        if not self._open:
            raise ProtocolError("no round is open")
        self._open = False

    # ------------------------------------------------------------------ #
    # cost queries
    # ------------------------------------------------------------------ #

    @property
    def num_rounds(self) -> int:
        return len(self._rounds)

    @property
    def bits_per_element(self) -> int:
        return self._bits_per_element

    def round_loads(self, index: int) -> dict[DirectedEdge, int]:
        """Copy of the per-edge element loads of round ``index``."""
        return dict(self._rounds[index])

    def round_cost(self, index: int) -> float:
        """``max_e |Y_i(e)| / w_e`` for round ``index`` (element units)."""
        loads = self._rounds[index]
        if not loads:
            return 0.0
        return max(
            count / self._tree.bandwidth(*edge) for edge, count in loads.items()
        )

    def total_cost(self) -> float:
        """The paper's ``cost(A)`` in element units."""
        return sum(self.round_cost(i) for i in range(len(self._rounds)))

    def total_cost_bits(self) -> float:
        """``cost(A)`` in bits."""
        return self.total_cost() * self._bits_per_element

    def edge_total(self, edge: DirectedEdge) -> int:
        """Total elements routed through ``edge`` across all rounds."""
        return sum(loads.get(edge, 0) for loads in self._rounds)

    def total_elements(self) -> int:
        """Total element-hops (sum of loads over all edges and rounds)."""
        return sum(sum(loads.values()) for loads in self._rounds)

    def bottleneck(self, index: int | None = None) -> tuple[DirectedEdge, float] | None:
        """The most expensive directed edge (of one round or overall)."""
        indices = range(len(self._rounds)) if index is None else [index]
        best: tuple[DirectedEdge, float] | None = None
        for i in indices:
            for edge, count in self._rounds[i].items():
                cost = count / self._tree.bandwidth(*edge)
                if best is None or cost > best[1]:
                    best = (edge, cost)
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

    # ------------------------------------------------------------------ #
    # adapters: what production calls with arrays, on the dicts
    # ------------------------------------------------------------------ #

    def add_link_loads(self, loads: dict) -> None:
        """A kernel's (reference: dict) result, charged the old way."""
        self.add_loads(loads.keys(), loads.values())

    def link_loads(self, index: int) -> dict:
        """What ``SuperstepDriver._absorb`` replays into the master."""
        return self.round_loads(index)


def reference_push_loads(self, up: np.ndarray, down: np.ndarray) -> dict:
    """Prefix-sum tree-difference arrays into a per-edge load dict.

    ``up[x]`` / ``down[x]`` hold path-difference charges; after
    pushing partial sums up the levels, the value at ``x`` is the
    load on the edge between ``x`` and its parent — upward
    (``x -> parent``) for ``up``, downward for ``down``.
    (``self`` is a ``RoutingIndex``: the old method body.)
    """
    parent = self.parent
    self._push_up(up)
    self._push_up(down)
    loads: dict = {}
    nodes = self.nodes
    for x in np.flatnonzero(up).tolist():
        if parent[x] >= 0:
            loads[(nodes[x], nodes[parent[x]])] = int(up[x])
    for x in np.flatnonzero(down).tolist():
        if parent[x] >= 0:
            edge = (nodes[parent[x]], nodes[x])
            loads[edge] = loads.get(edge, 0) + int(down[x])
    return loads


@contextmanager
def reference_model():
    """Clusters built inside charge and cost their rounds the old way."""
    from repro.sim import cluster as cluster_module
    from repro.topology.steiner import RoutingIndex

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoutingIndex, "_push_loads", reference_push_loads)
        patch.setattr(cluster_module, "CostLedger", ReferenceCostLedger)
        yield
