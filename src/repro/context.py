"""One run context: the state a run carries, installed per thread.

A run is one ledger on one tree (Section 2).  Around it the code
carries four pieces of state: the tracer, the metrics registry, the
auditor and the topology-artifact cache.  They live together in one
frozen :class:`RunContext`, and one thread-local holds the current
context.  :func:`current` reads it; :func:`use`
installs a changed copy for the duration of a block and restores the
previous context in a ``finally``, so nesting and exceptions are safe.

The front-ends ``tracing()``, ``auditing()`` and ``use_artifacts()``
are ``use`` with one field changed, and ``get_tracer()`` /
``get_auditor()`` read one field of ``current()``.  The registry is
not called by instrumented code: the recording tracer folds every span
it closes into the registry of the current context.  So a registry
counts only under a recording tracer, and ``collecting()`` installs a
:class:`~repro.obs.tracer.FoldingTracer` beside it when none is.

A new thread, and every pool worker, starts from :func:`default`;
``run_many`` without ``workers`` runs its plans in the caller, under
the caller's context.  A caller may still install one context in
threads of its own: the recording tracer (and the registry folds under
its lock), the auditor and the artifact cache lock their shared state,
and both tracers keep their open-span stacks per thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.topology.artifacts import ArtifactCache


@dataclass(frozen=True)
class RunContext:
    """Everything a run reads besides its inputs.

    ``registry`` is ``None`` outside ``collecting()``; ``artifacts``
    is ``None`` outside a session or run scope, and clusters then build
    private artifacts.
    """

    tracer: Any
    registry: MetricsRegistry | None
    auditor: Any
    artifacts: ArtifactCache | None = None


_DEFAULT: RunContext | None = None  # built on first use


def default() -> RunContext:
    """The context every thread starts from: no-op tracer and auditor,
    no registry, no artifact cache."""
    global _DEFAULT
    if _DEFAULT is None:
        # imported on first use: the obs modules import this one
        from repro.obs.audit import NullAuditor
        from repro.obs.tracer import NullTracer

        _DEFAULT = RunContext(NullTracer(), None, NullAuditor())
    return _DEFAULT


class _Current(threading.local):
    context: RunContext | None = None  # None: this thread uses default()


_CURRENT = _Current()


def current() -> RunContext:
    """The context installed in this thread."""
    # read on every round by the disabled hooks: no call once built
    return _CURRENT.context or _DEFAULT or default()


@contextmanager
def use(base: RunContext | None = None, /, **changes) -> Iterator[RunContext]:
    """Install ``base`` (the current context if ``None``) with
    ``changes`` applied for the duration of the block; yields it."""
    previous = _CURRENT.context
    context = replace(current() if base is None else base, **changes)
    _CURRENT.context = context
    try:
        yield context
    finally:
        _CURRENT.context = previous
