"""Connected components over index arrays: min-label hooking + pointer jumping.

The array form of union-find for callers that hold edges as columns:
vertices are ``0..n-1``, edges are two parallel index arrays, and the
answer is one ``int64`` per vertex.  Disjoint graphs can share one call
by giving each its own index range (the hash-to-min driver keys every
node's fragment as ``(owner, vertex)`` rows of one table), because a
component's root is the smallest *index* in it.
"""

from __future__ import annotations

import numpy as np


def _hook_round(parent: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Hook every root onto its smallest neighbouring root, then flatten.

    ``parent`` maps each vertex to its root on entry and on exit (it is
    updated in place); returns the edges that still join two distinct
    roots, contracted to those roots.  The hook is one
    ``np.minimum.at``: every edge's endpoints are roots, so a larger
    root still points at itself and ends up at its smallest partner,
    whatever order the edges come in.  A root that stays a root either
    absorbed every neighbour or had none smaller, so two rounds at least
    halve the number of roots that still have an edge: O(log n) rounds.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # unbuffered ufunc.at is fast from NumPy 1.25; on the numpy>=1.22
    # floor it is slower, never wrong (RoutingIndex._push_up relies on
    # it too)
    np.minimum.at(parent, hi, lo)
    while True:  # hooks only point downwards, so this ends at the roots
        grand = parent.take(parent)
        if np.array_equal(grand, parent):
            break
        parent[:] = grand
    u, v = parent.take(lo), parent.take(hi)
    live = u != v
    return u[live], v[live]


def component_roots(u, v, n: int) -> np.ndarray:
    """The smallest vertex index of each vertex's component, as ``int64[n]``.

    ``u`` and ``v`` are parallel integer arrays with values in
    ``[0, n)``: one undirected edge per position, in either orientation;
    duplicates and self-loops are allowed.  A vertex without edges is its
    own root.
    """
    parent = np.arange(n, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    live = u != v
    u, v = u[live], v[live]
    while len(u):
        u, v = _hook_round(parent, u, v)
    return parent
