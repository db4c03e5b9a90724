"""``tools/round_shapes.py`` builds its three rounds as it says and
prints one line per shape, then one for the first shipped again along
its layout."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "round_shapes", ROOT / "tools" / "round_shapes.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_shapes_are_the_documented_rounds():
    tool = _tool()
    layouts = {}
    for name, build in tool.SHAPES:
        tree, (sources, targets, counts, values) = build(np.random.default_rng(7))
        assert counts.sum() == len(values)
        layouts[name] = (len(tree.compute_nodes), len(counts), len(values))
        ascending = bool((np.diff(targets) >= 0).all())
        assert ascending == (name != "source-major")
    assert layouts["twin"] == (144, 144, 20_000)
    assert layouts["source-major"] == (64, 64 * 64, 400_000)
    nodes, runs, elements = layouts["uniform"]
    assert (nodes, elements) == (144, 20_000) and 12_000 < runs < 13_500


def test_prints_one_line_per_shape(capsys):
    _tool().main(["--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "uniform", "twin", "source-major", "uniform-again"
    ]
    # the same runs and elements, shipped along their layout
    assert lines[3].split()[1:5] == lines[0].split()[1:5]
    assert all(line.endswith(" ms") for line in lines)
