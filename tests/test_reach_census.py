"""``tools/reach_census.py``: script paths, relative or absolute, and the
option census."""

import importlib.util
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


def test_option_census_lists_only_parameters_never_set(
    tmp_path, monkeypatch, capsys
):
    spec = importlib.util.spec_from_file_location(
        "reach_census", ROOT / "tools" / "reach_census.py"
    )
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    package = tmp_path / "package"
    package.mkdir()
    script = package / "script.py"
    script.write_text(
        "def f(a, set_me=1, *, left_alone='x'):\n"
        "    return a\n"
        "\n"
        "f(0, set_me=5)\n"
        "f(1)\n"
    )
    # count the throwaway script's functions instead of src/repro's
    monkeypatch.setattr(census, "PACKAGE", package)
    monkeypatch.setattr(census, "SRC", tmp_path)
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.setattr(sys, "path", list(sys.path))
    census.main([str(script)])
    listed = capsys.readouterr().out.split("every call: ")[1].splitlines()
    assert listed == ["1", "package/script.py:1 f(left_alone)"]


def test_a_probe_list_sets_its_environment_and_stdout(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "reach_census", ROOT / "tools" / "reach_census.py"
    )
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    package = tmp_path / "package"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "probe.py").write_text(
        "import os\n"
        "\n"
        "def setting(name='PROBE_SETTING'):\n"
        "    return os.environ.get(name)\n"
        "\n"
        "print(setting())\n"
    )
    out = tmp_path / "out.txt"
    probes = tmp_path / "probes.txt"
    probes.write_text(f"# a comment\n\nPROBE_SETTING=on -m package.probe > {out}\n")
    assert census.read_probes(probes) == [
        ({"PROBE_SETTING": "on"}, ["-m", "package.probe"], str(out))
    ]
    monkeypatch.setattr(census, "PACKAGE", package)
    monkeypatch.setattr(census, "SRC", tmp_path)
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "modules", dict(sys.modules))
    monkeypatch.delenv("PROBE_SETTING", raising=False)
    census.main(["--probes", str(probes)])
    # the probe's stdout went to its file, under its setting, then the
    # setting was taken back
    assert out.read_text() == "on\n"
    assert "PROBE_SETTING" not in os.environ
    table = capsys.readouterr().out
    assert "package/probe.py" in table and "1/1" in table
