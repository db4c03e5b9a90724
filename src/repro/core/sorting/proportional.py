"""Proportional integer split (Algorithm 6, Lemma 9).

A light node ``u`` must scatter its ``N_u`` elements across the heavy
nodes ``v_1..v_k`` in proportion to their sizes ``N_{v_i}`` — but in
integer amounts.  Algorithm 6 walks the heavy nodes once, carrying a
running credit ``Δ`` of over-allocation, and rounds each ideal share up
or down so that (Lemma 9) every *prefix* and every *contiguous range* of
quotas stays within one element of proportionality, and the quotas sum
to at least ``N_u``.  The range property is what bounds round-1 traffic
per link: the heavy nodes on one side of a link always form a contiguous
range of the traversal order.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def _quota_columns(
    heavy_sizes: Sequence[int], light_sizes: np.ndarray
) -> Iterator[np.ndarray]:
    """Algorithm 6 for every light node at once: per heavy node in turn,
    the quotas of all ``light_sizes``.  Each light node's credit goes
    through the one-node walk's IEEE operations in its order, so the
    quotas are bit-identical to walking the nodes one by one."""
    if (light_sizes < 0).any():
        raise ValueError("light sizes must be non-negative")
    if any(size < 0 for size in heavy_sizes):
        raise ValueError("heavy sizes must be non-negative")
    total = sum(heavy_sizes)
    if total <= 0:
        raise ValueError("at least one heavy node must hold data")
    light = light_sizes.astype(np.float64)
    credit = np.zeros(len(light))
    for size in heavy_sizes:
        ideal = size / total * light
        floor = np.floor(ideal)
        fractional = ideal - floor
        down = credit >= fractional
        credit = np.where(down, credit - fractional, credit + (1.0 - fractional))
        yield floor.astype(np.int64) + ~down


def proportional_quotas(
    heavy_sizes: Sequence[int], light_size: int
) -> list[int]:
    """Quotas ``N_u^i``: how many of ``light_size`` elements go to each heavy node.

    ``heavy_sizes`` are the ``N_{v_1}..N_{v_k}`` in traversal order; the
    result has the Lemma 9 prefix/range guarantees.  Quotas are upper
    bounds: callers send ``min(quota, elements remaining)`` so the total
    shipped is exactly ``light_size`` (property (3) guarantees the quotas
    suffice) — :func:`proportional_runs` does that for many light nodes.
    """
    light = np.asarray([light_size], dtype=np.int64)
    return [int(quotas[0]) for quotas in _quota_columns(heavy_sizes, light)]


def proportional_runs(
    heavy_sizes: Sequence[int], light_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every light node's scatter: ``(light, heavy, count)`` index triples.

    Light node ``i`` ships ``min(quota, elements left)`` of its
    ``light_sizes[i]`` to each heavy node in turn; only the non-empty
    runs are returned, light node by light node and each one's in heavy
    order — the order its elements leave in.  One pass over the heavy
    nodes; none when no light node holds data.
    """
    light_sizes = np.asarray(light_sizes, dtype=np.int64)
    if not light_sizes.any():
        return (np.empty(0, np.intp),) * 3
    shipped = np.zeros_like(light_sizes)
    rows, widths, counts = [], [], []
    for quotas in _quota_columns(heavy_sizes, light_sizes):
        sent = np.minimum(quotas, light_sizes - shipped)
        shipped += sent
        live = np.flatnonzero(sent)
        rows.append(live)
        widths.append(len(live))
        counts.append(sent[live])
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    columns = np.repeat(np.arange(len(widths)), widths)
    return rows[order], columns[order], np.concatenate(counts)[order]
