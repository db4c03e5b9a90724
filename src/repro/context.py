"""One run context: the state a run carries, installed per thread.

A run is one ledger on one tree (Section 2).  Around it the code
carries five pieces of state: the tracer, the metrics registry, the
auditor, the topology-artifact cache and the execution backend.  They
live together in one frozen :class:`RunContext`, and one thread-local
holds the current context.  :func:`current` reads it; :func:`use`
installs a changed copy for the duration of a block and restores the
previous context in a ``finally``, so nesting and exceptions are safe.

The front-ends ``tracing()``, ``collecting()``, ``auditing()`` and
``use_artifacts()`` are ``use`` with one field changed, and
``get_tracer()`` / ``get_registry()`` / ``get_auditor()`` read one
field of ``current()``.

A context is safe to share between threads: the recording tracer, the
registry, the auditor and the artifact cache lock their shared state,
and both tracers keep their open-span stacks per thread.  So
``run_many`` captures ``current()`` once and installs it unchanged on
every executor thread, and a new thread starts from :func:`default`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.topology.artifacts import ArtifactCache


@dataclass(frozen=True)
class RunContext:
    """Everything a run reads besides its inputs.

    ``artifacts`` is ``None`` outside a session or run scope, and
    clusters then build private artifacts.  ``backend`` names the
    substrate :func:`~repro.sim.cluster.make_cluster` builds on, and
    ``backend_opts`` go into every construction.
    """

    tracer: Any
    registry: Any
    auditor: Any
    artifacts: ArtifactCache | None = None
    backend: str = "sim"
    backend_opts: dict = field(default_factory=dict)


_DEFAULT: RunContext | None = None  # built on first use


def default() -> RunContext:
    """The context every thread starts from: no-op tracer, registry
    and auditor, no artifact cache, the simulator."""
    global _DEFAULT
    if _DEFAULT is None:
        # imported on first use: the obs modules import this one
        from repro.obs.audit import NullAuditor
        from repro.obs.metrics import NullRegistry
        from repro.obs.tracer import NullTracer

        _DEFAULT = RunContext(NullTracer(), NullRegistry(), NullAuditor())
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
