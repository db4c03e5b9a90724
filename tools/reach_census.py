#!/usr/bin/env python3
"""Which functions of ``src/repro`` does a run enter?

Runs scripts under a profile hook (``sys.setprofile`` and
``threading.setprofile``, so threads a script starts count; worker
processes do not) that records every ``src/repro`` function entered, then prints per
module the functions reached out of those defined and the body lines of
the ones never entered.  Standard library only; scripts run one after
another in this process, separated by ``:::``::

    python tools/reach_census.py \\
        bench/run.py --workload serve_mix --smoke --seconds 0 \\
        ::: examples/quickstart.py ::: examples/query_plan.py

``--probes FILE`` adds the commands of a probe list, one a line, before
those given as arguments: optional ``NAME=value`` settings of the
environment, then ``-m MODULE`` or a script path, its arguments, and
optionally ``> FILE`` for its standard output; blank lines and ``#``
comments are skipped.  ``tools/ci_probes.txt`` is the list CI reads, for
the census and for its strict-audit commands::

    python tools/reach_census.py --probes tools/ci_probes.txt \\
        ::: examples/quickstart.py

The paper benchmarks run through ``-m pytest`` and need
``--benchmark-disable``: pytest-benchmark calls ``sys.setprofile(None)``
inside every ``benchmark(...)`` call, which would hide what it times::

    BENCH_SMALL=1 -m pytest benchmarks -q -p no:cacheprovider --benchmark-disable

After the table comes the option census: the same hook compares, on
every entry of a ``src/repro`` function, each parameter that has a
default with the value it received, and the census prints the parameters
that every run left at their default -- options no caller sets, each a
constant in waiting.  A default is evaluated in its module's globals;
one that names anything else (an enclosing local, a class attribute) is
not counted.
"""

import ast
import contextlib
import os
import runpy
import shlex
import sys
import threading
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _span(node) -> range:
    """A function's lines from its first decorator, like ``co_firstlineno``."""
    return range(min([node.lineno, *(d.lineno for d in node.decorator_list)]),
                 node.end_lineno + 1)


def defined_functions() -> dict:
    """``(file, first line) -> body lines`` per function, the lines of a
    nested function counted for it and not for the one enclosing it."""
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, FUNCTION):
                body = set(range(node.body[0].lineno, node.end_lineno + 1))
                for inner in ast.walk(node):
                    if inner is not node and isinstance(inner, FUNCTION):
                        body -= set(_span(inner))
                functions[str(path), _span(node).start] = body
    return functions


def defaulted_parameters() -> dict:
    """``(file, first line) -> (name, {parameter: default source})`` per
    function with at least one defaulted parameter."""
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, FUNCTION):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = [
                    *zip(positional[len(positional) - len(args.defaults):],
                         args.defaults),
                    *((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None),
                ]
                if pairs:
                    functions[str(path), _span(node).start] = (
                        node.name, {a.arg: ast.unparse(d) for a, d in pairs}
                    )
    return functions


def _same(value, default) -> bool:
    """``value`` is the default: the same object, or an equal one of its type."""
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except Exception:  # an array compared elementwise, say
        return False


def read_probes(path: str) -> list:
    """The probe list in ``path`` as ``(settings, command, stdout)``
    triples: the environment to set, ``[script or -m module, *args]``
    and the file its standard output goes to (``None``: stdout)."""
    probes = []
    for line in Path(path).read_text().splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        stdout = None
        if len(words) > 2 and words[-2] == ">":
            *words, _, stdout = words
        settings = {}
        while "=" in words[0] and not words[0].startswith("-"):
            name, value = words.pop(0).split("=", 1)
            settings[name] = value
        probes.append((settings, words, stdout))
    return probes


@contextlib.contextmanager
def _probe_context(settings: dict, stdout):
    """The probe's environment settings and standard output, then the
    caller's again."""
    saved = {name: os.environ.get(name) for name in settings}
    os.environ.update(settings)
    try:
        with contextlib.ExitStack() as stack:
            if stdout is not None:
                stack.enter_context(
                    contextlib.redirect_stdout(stack.enter_context(open(stdout, "w")))
                )
            yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_scripts(commands: list, options: dict) -> set:
    """Run each ``(settings, [script or -m module, *args], stdout)`` as
    ``__main__``; the reached functions.

    Also the option census, in ``options`` (:func:`defaulted_parameters`)
    in place: a function's default sources become their values on its
    first entry, and every parameter that ever receives another value
    than its default is deleted."""
    reached, prefix, evaluated = set(), str(PACKAGE), set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            key = (code.co_filename, code.co_firstlineno)
            reached.add(key)
            if key in options:
                check(key, frame)

    def check(key, frame):
        parameters = options[key][1]
        if key not in evaluated:
            evaluated.add(key)
            for name, source in list(parameters.items()):
                try:
                    parameters[name] = eval(source, frame.f_globals)
                except Exception:  # a default that is not module-level
                    del parameters[name]
        if parameters:
            received = frame.f_locals
            for name, default in list(parameters.items()):
                if not _same(received.get(name, default), default):
                    del parameters[name]

    sys.path.insert(0, str(SRC))
    for settings, command, stdout in commands:
        if command[0] == "-m":
            sys.argv = command[1:]
            run = partial(
                runpy.run_module, command[1], run_name="__main__", alter_sys=True
            )
        else:
            # resolved: a relative path would give the script's own code
            # a relative co_filename, outside the prefix
            script = str(Path(command[0]).resolve())
            sys.argv = command
            sys.path.insert(0, str(Path(script).parent))
            run = partial(runpy.run_path, script, run_name="__main__")
        with _probe_context(settings, stdout):
            threading.setprofile(hook)
            sys.setprofile(hook)
            try:
                run()
            except SystemExit as exit:
                if exit.code:
                    print(f"{' '.join(command)}: exit {exit.code}", file=sys.stderr)
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
    return reached


def main(argv: list) -> None:
    commands, current = [], []
    if argv[:1] == ["--probes"] and len(argv) > 1:
        commands, argv = read_probes(argv[1]), argv[2:]
    for arg in argv + [":::"]:
        if arg != ":::":
            current.append(arg)
        elif current:
            commands.append(({}, current, None))
            current = []
    if not commands:
        sys.exit(__doc__)
    options = defaulted_parameters()
    reached = run_scripts(commands, options)
    modules: dict = {}
    for key, body in defined_functions().items():
        counts = modules.setdefault(key[0], [0, 0, 0])
        counts[1] += 1
        if key in reached:
            counts[0] += 1
        else:
            counts[2] += len(body)
    print(f"{'module':<44} {'reached':>9} {'unreached lines':>16}")
    rows = [(str(Path(f).relative_to(SRC)), *c) for f, c in sorted(modules.items())]
    for name, hit, count, missed in [*rows, ("total", *map(sum, zip(*modules.values())))]:
        print(f"{name:<44} {f'{hit}/{count}':>9} {missed:>16}")
    print_options(options, reached)


def print_options(options: dict, reached: set) -> None:
    """The parameters of reached functions that no call ever set."""
    never = [
        (str(Path(key[0]).relative_to(SRC)), key[1], name, parameter)
        for key, (name, parameters) in sorted(options.items())
        if key in reached
        for parameter in parameters
    ]
    print(f"\noptions left at their default in every call: {len(never)}")
    for module, line, name, parameter in never:
        print(f"{module}:{line} {name}({parameter})")


if __name__ == "__main__":
    main(sys.argv[1:])
