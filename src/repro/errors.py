"""Exception hierarchy for the topoMPC reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class TopologyError(ReproError):
    """The network topology is malformed for the requested operation.

    Examples: the edge set does not form a tree, a bandwidth is
    non-positive, a referenced node does not exist, or an algorithm that
    requires a symmetric topology was handed an asymmetric one.
    """


class DistributionError(ReproError):
    """The initial data placement is invalid.

    Examples: data placed on a non-compute node, duplicated elements in a
    relation that must be a set, or statistics that do not match the
    actual fragments.
    """


class ProtocolError(ReproError):
    """A protocol was invoked outside of its preconditions.

    Examples: running a star-only algorithm on a deep tree, sending from a
    node that does not hold the data it claims to send, or opening a round
    while another round is still in flight.
    """


class PackingError(ReproError):
    """Square/rectangle packing could not cover the output grid.

    Raised when the power-of-two packing machinery of Section 4 cannot
    produce a full cover of the ``|R| x |S|`` grid; under the paper's
    preconditions this indicates a bug, so it is an error rather than a
    silent fallback.
    """


class AnalysisError(ReproError):
    """An experiment/report aggregation was asked for inconsistent data."""


class PlanError(ReproError):
    """A logical query plan is malformed or cannot be compiled.

    Examples: a join condition referencing an unknown column, duplicate
    output column names, a schema too wide for the 64-bit element
    encoding, or a group-by whose key column exceeds the width the
    shuffle encoding supports.
    """


class AuditError(ReproError):
    """A cost-model invariant failed under strict auditing.

    Raised by :class:`repro.obs.audit.CostAuditor` when a finalized
    round's deliveries, charges, or reported cost contradict the
    Section 2 model (or a run's cost beats its own lower bound) and the
    auditor was installed with ``strict=True``.
    """


def annotate_error(error: BaseException, note: str) -> None:
    """Attach ``note`` to ``error`` (``add_note`` on 3.11+, args fold)."""
    if hasattr(error, "add_note"):  # Python >= 3.11
        error.add_note(note)
    elif error.args:
        error.args = (f"{error.args[0]} [{note}]",) + error.args[1:]
    else:
        error.args = (note,)
