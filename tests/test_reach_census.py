"""``tools/reach_census.py`` counts a script given by a relative path."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _main_row(script: str) -> list[str]:
    """The census row of ``repro/__main__.py`` after running ``script
    topology`` from the repository root."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, "tools/reach_census.py", script, "topology"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    # the command's own output comes first, the census table last
    (row,) = [
        line.split()
        for line in completed.stdout.splitlines()
        if line.startswith("repro/__main__.py ")
    ]
    return row


def test_relative_script_path_is_counted():
    row = _main_row("src/repro/__main__.py")
    reached, defined = map(int, row[1].split("/"))
    assert 0 < reached <= defined


def test_relative_and_absolute_paths_count_the_same():
    absolute = _main_row(str(ROOT / "src" / "repro" / "__main__.py"))
    assert _main_row("src/repro/__main__.py") == absolute
