"""Edge-keyed loads in the ledger's slot layout, for tests that charge
rounds by hand through ``CostLedger.add_link_loads``."""

import numpy as np


def link_loads(tree, loads: dict) -> np.ndarray:
    """``{directed edge: elements}`` as the ``int64 (2, links)`` array
    of ``tree.routing_index`` (a ``KeyError`` names a non-edge)."""
    index = tree.routing_index
    slot = {edge: i for i, edge in enumerate(index.slot_edges)}
    array = np.zeros(index.link_bandwidths.shape, dtype=np.int64)
    for edge, count in loads.items():
        array.reshape(-1)[slot[edge]] += count
    return array


def charge_round(ledger, tree, loads: dict) -> None:
    """One closed round of ``ledger`` carrying ``loads``."""
    ledger.open_round()
    ledger.add_link_loads(link_loads(tree, loads))
    ledger.close_round()
