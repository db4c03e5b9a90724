"""A round's layout: where every run of one registration goes, as a value.

A registration of either round call is a list of runs, run ``i`` going
from one compute node to one node (``exchange_runs``, a unicast) or to
a set of nodes (``exchange_multicast_runs``, a multicast).  Everything
the finalizer derives from the runs without reading a count is their
*layout*:

* the runs themselves: sources, destination members, the tag;
* the ``(run, member)`` rows, grouped by destination — stable, so every
  destination receives its runs in registration order — with a repeated
  pair dropped (a destination set is a set);
* the *path half* of the charge: the per-run LCA of a unicast, the
  Steiner decomposition of a multicast
  (:meth:`~repro.topology.steiner.RoutingIndex.unicast_paths`,
  :meth:`~repro.topology.steiner.RoutingIndex.multicast_paths`).

:meth:`Cluster.lay_out <repro.sim.cluster.Cluster.lay_out>` builds one
and :meth:`RoundContext.exchange_layout
<repro.sim.cluster.RoundContext.exchange_layout>` ships a payload along
it, with per-run counts of its own when a leg ships fewer elements along
the same runs (a run of count zero sends nothing and stays registered).
The two round calls lay out their runs and ship them once, so every
round is delivered and charged through a layout.  A protocol whose rounds
keep their runs — the hash-to-min supersteps of
:mod:`repro.graphs.components` — lays out once per run and ships many
times.  The ledger still charges each round from its own counts, and
nothing outlives the run that built it.

Every derived array is built on first use, so a layout shipped once
costs what its round's finalization would.
"""

from __future__ import annotations

import numpy as np

from repro.util.grouping import concat_ranges, gather_ranges, group_slices


class cached_property:
    """A value computed on first use and then kept in the instance, as
    :class:`functools.cached_property` does, minus the lock it takes on
    every first use (Python < 3.12): a fresh round reads four of them."""

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, layout, owner=None):
        if layout is None:
            return self
        value = layout.__dict__[self.name] = self.func(layout)
        return value


class RoundLayout:
    """The count-free half of one registration; see the module docstring.

    Run ``i`` goes from compute-order index ``sources[i]`` to
    ``members[i]`` (a unicast layout, ``offsets is None``) or to the set
    ``members[offsets[i]:offsets[i + 1]]`` (a multicast one); ``counts``
    are the run counts it was laid out with, shipped when a shipment
    names none.  Built by :meth:`Cluster.lay_out
    <repro.sim.cluster.Cluster.lay_out>`, which validates the arrays.
    """

    def __init__(self, routing, sources, members, offsets, counts, tag: str) -> None:
        self.routing = routing
        self.sources = sources
        self.members = members
        self.offsets = offsets
        self.counts = counts
        self.tag = tag

    @property
    def multicast(self) -> bool:
        return self.offsets is not None

    @property
    def runs(self) -> int:
        return len(self.sources)

    # ------------------------------------------------------------------ #
    # rows: the (run, member) pairs, grouped by destination
    # ------------------------------------------------------------------ #

    @cached_property
    def _direct(self) -> tuple | None:
        """Unicast runs whose targets never fall — the rows are the runs
        in registration order, nothing to sort — as every target, its
        last run, and the runs whose target is their source (a copy a
        node keeps, usually few); ``None`` for other runs."""
        members = self.members
        if self.multicast or (members[1:] < members[:-1]).any():
            return None
        last = np.ones(len(members), dtype=bool)
        np.not_equal(members[1:], members[:-1], out=last[:-1])
        last = np.flatnonzero(last)
        sources, targets = self._nodes
        return members[last], last, np.flatnonzero(sources == targets)

    @cached_property
    def _rows(self) -> tuple:
        """``(row_run, row_member, row_destination)``: per row its run,
        its position in :attr:`members` and its destination, grouped by
        destination in registration order, a repeated pair dropped."""
        members = self.members
        if self.offsets is None:
            row_run = np.arange(self.runs)
        else:
            row_run = np.repeat(np.arange(self.runs), np.diff(self.offsets))
        if not (members[1:] < members[:-1]).any():
            order, destination = np.arange(len(members)), members
        else:
            order = group_slices(members)[0]
            row_run, destination = row_run[order], members[order]
        if self.offsets is None:
            return row_run, order, destination  # one row per run: no repeats
        repeated = (destination[1:] == destination[:-1]) & (
            row_run[1:] == row_run[:-1]
        )
        if repeated.any():
            keep = np.concatenate(([True], ~repeated))
            order, row_run, destination = order[keep], row_run[keep], destination[keep]
        return row_run, order, destination

    @property
    def row_member(self) -> np.ndarray:
        """Every row's position in :attr:`members`, rows grouped by
        destination."""
        return self._rows[1]

    @property
    def row_destination(self) -> np.ndarray:
        """Every row's destination, a compute-order index, ascending."""
        return self._rows[2]

    def ship(self, counts: np.ndarray, payload: np.ndarray) -> tuple[list, tuple]:
        """Where a shipment of ``payload`` in runs of ``counts`` lands:
        ``(destinations, starts, ends, values)`` tables, destination
        ``destinations[k]`` receiving ``values[starts[k]:ends[k]]``, and
        the arrivals as ``(receivers, lengths)``: ``lengths[i]`` elements
        reach routing index ``receivers[i]`` from another node (a copy a
        node sends itself is stored, not received).

        Unicast rows that are the runs in registration order (a hash
        partition cut by :func:`~repro.util.grouping.runs_by_target`)
        take the payload as registered, one stretch per destination.
        Otherwise only the rows whose runs carry elements count: a
        multicast destination one of them serves gets that run's slice
        of the payload as a view (a whole-relation broadcast moves no
        bytes), and the other destinations one gathered chunk, their
        runs in registration order
        (:func:`~repro.util.grouping.gather_ranges`: a sorting scatter's
        source-major runs are one transpose).
        """
        ends = np.cumsum(counts)
        direct = self._direct
        if direct is not None:
            positions, last, kept = direct
            his = ends[last]
            tables = [(positions, np.concatenate(([0], his[:-1])), his, payload)]
            lengths = counts.copy()
            lengths[kept] = 0
            return tables, (self._nodes[1], lengths)
        row_run, _, destination = self._rows
        remote, receiver = self._remote
        lengths = counts[row_run]
        if not lengths.all():
            live = np.flatnonzero(lengths)
            row_run, destination, lengths = row_run[live], destination[live], lengths[live]
            remote, receiver = remote[live], receiver[live]
        arrivals = receiver[remote], lengths[remote]
        if not len(row_run):
            return [], arrivals
        fresh = np.ones(len(row_run) + 1, dtype=bool)
        np.not_equal(destination[1:], destination[:-1], out=fresh[1:-1])
        bounds = np.flatnonzero(fresh)
        first, rows = bounds[:-1], np.diff(bounds)
        starts = ends - counts
        sizes = np.add.reduceat(lengths, first)
        single = (rows == 1) & self.multicast
        if not single.any():  # every destination one stretch of one gather
            his = np.cumsum(sizes)
            gathered = gather_ranges(payload, starts[row_run], lengths)
            return [(destination[first], his - sizes, his, gathered)], arrivals
        shared = np.flatnonzero(~np.repeat(single, rows))
        gathered = gather_ranges(payload, starts[row_run[shared]], lengths[shared])
        gathered_his = np.cumsum(np.where(single, 0, sizes))
        first_run = row_run[first]
        los = np.where(single, starts[first_run], gathered_his - sizes)
        his = np.where(single, ends[first_run], gathered_his)
        positions = destination[first]
        tables = [
            (positions[where], los[where], his[where], values)
            for where, values in ((single, payload), (~single, gathered))
        ]
        return tables, arrivals

    @classmethod
    def merged(cls, shipments: list[tuple]) -> tuple:
        """Shipments of one kind as one ``(layout, counts)``: their runs
        end to end under the first one's tag, so a round delivers each
        tag as one grouping, whatever its calls, and charges each kind
        with one path half."""
        if len(shipments) == 1:
            return shipments[0]
        layouts, counts = zip(*shipments)
        first = layouts[0]
        offsets = None
        if first.multicast:
            fanouts = np.concatenate([np.diff(layout.offsets) for layout in layouts])
            offsets = np.concatenate(([0], np.cumsum(fanouts)))
        layout = cls(
            first.routing,
            np.concatenate([layout.sources for layout in layouts]),
            np.concatenate([layout.members for layout in layouts]),
            offsets,
            np.concatenate(counts),
            first.tag,
        )
        return layout, layout.counts

    # ------------------------------------------------------------------ #
    # the charge's path half, the delivery index
    # ------------------------------------------------------------------ #

    @cached_property
    def _nodes(self) -> tuple:
        """The runs' sources and members as routing indices."""
        lookup = self.routing.compute_idx
        # ``take``: the indices may come narrow, which ``[]`` widens first
        return lookup.take(self.sources), lookup.take(self.members)

    @cached_property
    def paths(self) -> tuple:
        """The path half of the round's charge, node indices of
        :attr:`routing`: what
        :meth:`~repro.topology.steiner.RoutingIndex.path_loads` takes."""
        sources, members = self._nodes
        if self.offsets is None:
            return self.routing.unicast_paths(sources, members)
        offsets = self.offsets.astype(np.intp, copy=False)
        return self.routing.multicast_paths(
            sources, members, offsets[:-1], offsets[1:]
        )

    @cached_property
    def _remote(self) -> tuple:
        """Per row: whether its destination is not its source, and its
        destination as a routing index."""
        row_run, row_member, _ = self._rows
        sources, members = self._nodes
        return sources[row_run] != members[row_member], members[row_member]

    @cached_property
    def delivery(self) -> tuple[np.ndarray, np.ndarray]:
        """The delivery index of a shipment in :attr:`counts`:
        ``(positions, rows)``, per delivered element its payload position
        and its row, in the order :meth:`Cluster.column
        <repro.sim.cluster.Cluster.column>` reads the tag back
        (destination ascending, each one's rows in order).  A shipment
        in fewer counts delivers the elements whose payload positions it
        ships, in the same order."""
        counts = self.counts
        row_run = self._rows[0]
        lengths = counts[row_run]
        rows = np.repeat(np.arange(len(row_run)), lengths)
        if self._direct is not None:
            return np.arange(len(rows)), rows
        starts = np.cumsum(counts) - counts
        return concat_ranges(starts[row_run], lengths), rows
