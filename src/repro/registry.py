"""Central protocol catalog: the single source of truth for dispatch.

The paper defines one cost model over which many protocols compete —
topology-aware algorithms, topology-agnostic baselines, and relational
operators all answer the same question ("what does this computation cost
on this tree?").  This module gives that competition a single seam:

* every protocol self-registers at import time via
  :func:`register_protocol`, declaring its task, name, kind and
  capabilities (does it take a seed?  does it require a star?), and
* every task self-registers via :func:`register_task`, declaring its
  default protocol, its verifier's two halves and its lower bound.

The engine (:mod:`repro.engine`) consults this catalog instead of
hard-coded per-task dispatch tables, so adding a protocol anywhere in
the package is one decorator — no runner edits, no CLI edits.

Example::

    from repro.registry import register_protocol

    @register_protocol(task="sorting", name="my-sort", accepts_seed=True)
    def my_sort(tree, distribution, *, seed=0, **kwargs):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import AnalysisError

#: Execution backends of :func:`repro.run`: ``"sim"`` runs the query in
#: this process, ``"process"`` on one worker of a process pool.
BACKENDS = ("sim", "process")


class RegistryError(AnalysisError):
    """The protocol/task catalog was queried or mutated inconsistently."""


@dataclass(frozen=True)
class ProtocolSpec:
    """One registered protocol: callable plus dispatch metadata.

    Attributes
    ----------
    task:
        Canonical task name the protocol solves (``"set-intersection"``,
        ``"cartesian-product"``, ``"sorting"``, ``"equijoin"``, ...).
    name:
        Short protocol name used for dispatch (``"tree"``, ``"wts"``,
        ``"classic-hypercube"``, ...), unique per task.
    func:
        The protocol callable ``func(tree, distribution, **kwargs)``
        returning a :class:`repro.sim.protocol.ProtocolResult`.
    kind:
        ``"algorithm"`` for the paper's topology-aware protocols,
        ``"baseline"`` for topology-agnostic comparisons.
    accepts_seed:
        Whether ``func`` takes a ``seed`` keyword; the engine routes the
        seed only to protocols that declare it.
    topology:
        ``None`` if the protocol runs on any symmetric tree, otherwise
        the topology family it requires (e.g. ``"star"``).
    description:
        One-line summary shown by ``python -m repro protocols``.
    """

    task: str
    name: str
    func: Callable
    kind: str = "algorithm"
    accepts_seed: bool = False
    topology: str | None = None
    description: str = ""

    #: Where :func:`repro.run` can execute it: every protocol runs on
    #: either, because ``"process"`` runs the same code on a pool worker.
    backends = BACKENDS

    def call(self, tree, distribution, *, seed: int = 0, **kwargs):
        """Invoke the protocol, routing ``seed`` only if it is accepted."""
        if self.accepts_seed:
            kwargs["seed"] = seed
        return self.func(tree, distribution, **kwargs)


@dataclass(frozen=True)
class TaskSpec:
    """One registered task: verification + bound shared by its protocols.

    Every task registers both, and every run calls both: the engine
    reports no cost for an answer its verifier has not accepted, and
    none without the bound beside it.  The verifier comes in two
    halves.  ``expect`` reads only the input, like the bound, so the
    engine may compute both on its side thread while the protocol
    runs; ``check`` compares the protocol's answer with what ``expect``
    returned, on the caller's thread once the protocol is done.

    Attributes
    ----------
    name:
        Canonical task name.
    default_protocol:
        Protocol name used when the caller does not pick one.
    expect:
        ``expect(tree, distribution, **opts)`` returning what a correct
        answer must look like, from the input alone, with its own
        NumPy (a verifier built on the protocol kernels would pass
        their bugs).  It gets every protocol option of the run and
        reads those that change the instance (``payload_bits``); it
        may raise :class:`repro.errors.ProtocolError` on an input the
        task is not defined for.
    check:
        ``check(result, expected)`` raising
        :class:`repro.errors.ProtocolError` on a wrong answer.
    lower_bound:
        ``lower_bound(tree, distribution)`` returning a
        :class:`repro.core.common.LowerBound`.
    lower_bound_opts:
        Names of protocol keyword arguments the bound also understands
        (e.g. ``payload_bits`` for keyed tasks).  The engine forwards
        these from the caller's ``**opts`` so the bound is evaluated on
        the same instance parameters the protocol ran with.
    bound_holds_per_instance:
        True when the registered bound is valid for *every* input
        instance (the graph bounds count concrete data that must
        move), so a run reporting less cost is an accounting bug the
        auditor must flag.  False (default) for the paper's worst-case
        communication bounds (Theorems 1–3), which instance-adaptive
        protocols legitimately beat on easy inputs — beating those is
        recorded as a metric, never as a violation.
    aliases:
        Alternative spellings accepted by :func:`get_task`
        (``"intersection"`` for ``"set-intersection"``, ...).
    """

    name: str
    default_protocol: str
    expect: Callable
    check: Callable
    lower_bound: Callable
    lower_bound_opts: tuple = field(default_factory=tuple)
    bound_holds_per_instance: bool = False
    aliases: tuple = field(default_factory=tuple)

    def verify(self, tree, distribution, result, **opts) -> None:
        """Both halves at once: raise :class:`repro.errors.ProtocolError`
        unless ``result`` answers the instance a protocol ran on with
        ``opts``."""
        self.check(result, self.expect(tree, distribution, **opts))

    def bound(self, tree, distribution, opts: dict):
        """The lower bound of the instance a protocol ran on with
        ``opts``; only the names in ``lower_bound_opts`` reach it."""
        return self.lower_bound(
            tree,
            distribution,
            **{name: opts[name] for name in self.lower_bound_opts if name in opts},
        )


_PROTOCOL_SPECS: dict[tuple[str, str], ProtocolSpec] = {}
_TASK_SPECS: dict[str, TaskSpec] = {}
_TASK_ALIASES: dict[str, str] = {}


def register_protocol(
    *,
    task: str,
    name: str,
    kind: str = "algorithm",
    accepts_seed: bool = False,
    topology: str | None = None,
    description: str | None = None,
) -> Callable:
    """Class the decorated callable into the catalog; returns it unchanged.

    Re-registering the same callable is a no-op that keeps the original
    spec (so a stray second decoration cannot silently rewrite
    metadata), and a module reload — a *new* function object with the
    same module and qualified name — replaces the spec.  Registering an
    unrelated callable under a taken name raises :class:`RegistryError`
    — name squatting is a bug, not a feature.
    """
    if kind not in ("algorithm", "baseline"):
        raise RegistryError(
            f"protocol kind must be 'algorithm' or 'baseline', got {kind!r}"
        )

    def decorate(func: Callable) -> Callable:
        key = (task, name)
        existing = _PROTOCOL_SPECS.get(key)
        if existing is not None:
            if existing.func is func:
                return func
            same_definition = (
                getattr(existing.func, "__module__", None)
                == getattr(func, "__module__", object())
                and getattr(existing.func, "__qualname__", None)
                == getattr(func, "__qualname__", object())
            )
            if not same_definition:
                raise RegistryError(
                    f"protocol {name!r} already registered for task {task!r}"
                )
        summary = description
        if summary is None:
            doc = (func.__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
        _PROTOCOL_SPECS[key] = ProtocolSpec(
            task=task,
            name=name,
            func=func,
            kind=kind,
            accepts_seed=accepts_seed,
            topology=topology,
            description=summary,
        )
        return func

    return decorate


def register_task(
    name: str,
    *,
    default_protocol: str,
    expect: Callable,
    check: Callable,
    lower_bound: Callable,
    lower_bound_opts: tuple = (),
    bound_holds_per_instance: bool = False,
    aliases: tuple = (),
) -> TaskSpec:
    """Register a task (idempotent: re-registration overwrites)."""
    spec = TaskSpec(
        name=name,
        default_protocol=default_protocol,
        expect=expect,
        check=check,
        lower_bound=lower_bound,
        lower_bound_opts=tuple(lower_bound_opts),
        bound_holds_per_instance=bound_holds_per_instance,
        aliases=tuple(aliases),
    )
    _TASK_SPECS[name] = spec
    for alias in spec.aliases:
        _TASK_ALIASES[alias] = name
    return spec


def get_task(task: str) -> TaskSpec:
    """Resolve a task name or alias to its :class:`TaskSpec`."""
    canonical = _TASK_ALIASES.get(task, task)
    try:
        return _TASK_SPECS[canonical]
    except KeyError:
        raise AnalysisError(
            f"unknown task {task!r}; choose from {sorted(_TASK_SPECS)}"
        ) from None


def tasks() -> list[str]:
    """Canonical names of all registered tasks, sorted."""
    return sorted(_TASK_SPECS)


def get_protocol(task: str, name: str) -> ProtocolSpec:
    """Look up one protocol; raises :class:`AnalysisError` if absent."""
    canonical = _TASK_ALIASES.get(task, task)
    try:
        return _PROTOCOL_SPECS[(canonical, name)]
    except KeyError:
        known = sorted(
            spec_name
            for (spec_task, spec_name) in _PROTOCOL_SPECS
            if spec_task == canonical
        )
        raise AnalysisError(
            f"unknown protocol {name!r} for task {canonical!r}; "
            f"choose from {known}"
        ) from None


def protocols_for(task: str) -> dict[str, ProtocolSpec]:
    """All specs registered for one task, keyed by protocol name."""
    canonical = _TASK_ALIASES.get(task, task)
    return {
        spec_name: spec
        for (spec_task, spec_name), spec in sorted(_PROTOCOL_SPECS.items())
        if spec_task == canonical
    }


def list_protocols(task: str | None = None) -> list[ProtocolSpec]:
    """The catalog — every spec, or one task's specs, sorted by key."""
    if task is not None:
        return list(protocols_for(task).values())
    return [spec for _, spec in sorted(_PROTOCOL_SPECS.items())]
