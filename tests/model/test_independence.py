"""The model stays independent of the code it checks.

Every module of ``tests/model`` may import from ``repro`` only the input
formats: trees, placements, tuple and edge encodings.  A model that
called the routing index, the ledger or a grouping kernel would agree
with production by construction.
"""

import ast
from pathlib import Path

import pytest

ALLOWED = {
    "repro.topology.tree",
    "repro.data.distribution",
    "repro.queries.tuples",
    "repro.graphs.model",
}


def forbidden(source: str) -> set:
    """The ``repro`` modules ``source`` imports outside :data:`ALLOWED`."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module)
    return {
        module
        for module in modules
        if module.split(".")[0] == "repro" and module not in ALLOWED
    }


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_imports_only_input_formats_from_repro(path):
    assert forbidden(path.read_text()) == set()


def test_the_check_sees_a_forbidden_import():
    assert forbidden(
        "from repro.topology.steiner import RoutingIndex\n"
        "import repro.sim.ledger\n"
        "from repro import engine\n"
        "from repro.topology.tree import node_sort_key\n"
    ) == {"repro.topology.steiner", "repro.sim.ledger", "repro"}
