"""Edge-keyed loads in the ledger's slot layout, for tests that charge
rounds by hand through ``CostLedger.add_link_loads``, and back: the
links one element loads through the ``RoutingIndex`` kernels."""

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


def loaded_links(tree, loads: np.ndarray) -> dict:
    """The non-zero slots of a ``(2, links)`` array as ``{directed edge:
    elements}`` (the inverse of :func:`link_loads`)."""
    index = tree.routing_index
    return {
        edge: load
        for edge, load in zip(index.slot_edges, loads.ravel().tolist())
        if load
    }


def unicast_links(tree, src, dst) -> dict:
    """What one element sent ``src -> dst`` loads, per directed link."""
    index = tree.routing_index
    at = index.index_of
    return loaded_links(tree, index.unicast_loads([at[src]], [at[dst]], [1]))


def multicast_links(tree, src, dsts) -> dict:
    """What one element multicast from ``src`` to ``dsts`` loads."""
    index = tree.routing_index
    at = index.index_of
    loads = index.multicast_loads(
        [at[src]], [at[d] for d in dsts], [0], [len(dsts)], [1]
    )
    return loaded_links(tree, loads)
