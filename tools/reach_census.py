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

The paper benchmarks run through pytest's ``__main__.py``, and need
``--benchmark-disable``: pytest-benchmark calls ``sys.setprofile(None)``
inside every ``benchmark(...)`` call, which would hide what it times::

    BENCH_SMALL=1 python tools/reach_census.py \\
        "$(python -c 'import os, pytest; print(os.path.dirname(pytest.__file__))')/__main__.py" \\
        benchmarks -q -p no:cacheprovider --benchmark-disable
"""

import ast
import runpy
import sys
import threading
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


def run_scripts(commands: list) -> set:
    """Run each ``[script, *args]`` as ``__main__``; the reached functions."""
    reached, prefix = set(), str(PACKAGE)

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            reached.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(SRC))
    for command in commands:
        # resolved: a relative path would give the script's own code a
        # relative co_filename, outside the prefix
        script = str(Path(command[0]).resolve())
        sys.argv = command
        sys.path.insert(0, str(Path(script).parent))
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            runpy.run_path(script, run_name="__main__")
        except SystemExit as exit:
            if exit.code:
                print(f"{' '.join(command)}: exit {exit.code}", file=sys.stderr)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return reached


def main(argv: list) -> None:
    commands, current = [], []
    for arg in argv + [":::"]:
        if arg != ":::":
            current.append(arg)
        elif current:
            commands.append(current)
            current = []
    if not commands:
        sys.exit(__doc__)
    reached = run_scripts(commands)
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


if __name__ == "__main__":
    main(sys.argv[1:])
