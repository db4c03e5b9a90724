"""The parity digest (``tools/parity_digest.py``) does not depend on the
hash seed.

String node ids hash differently per ``PYTHONHASHSEED``: a protocol, a
bound or an estimate that iterated a set of them would show it in the
digest of its run.  The tool's grid runs every registered protocol and
every task's lower bound on six trees and two instance shapes (the
unequal one exercises the β paths), a chain-3 plan, the optimizer's
stage choices and two sums whose float result shows their order; it
digests reports, outputs in their key order, per-round link loads and
the store's contents in its own order after every round.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def per_run_digests(hash_seeds: tuple) -> list:
    """The tool's ``--per-run`` output under each hash seed, the runs
    side by side."""
    runs = [
        subprocess.Popen(
            [sys.executable, str(ROOT / "tools" / "parity_digest.py"), "--per-run"],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in hash_seeds
    ]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        outputs.append(out.splitlines())
    return outputs


def test_the_digest_does_not_depend_on_the_hash_seed():
    lines, other = per_run_digests(("1", "3"))
    assert lines == other
    *runs, total = lines
    assert total.startswith("parity digest ")
    assert f" over {len(runs)} runs " in total
    labels = {line.split(" ", 1)[0] for line in runs}
    for spec in repro.list_protocols():
        assert f"{spec.task}/{spec.name}" in labels
    assert {"plan", "optimize", "float"} <= labels


def grid_results(label: str, runs: str = "_protocol_runs") -> list:
    """The outcomes of every run of the tool's ``runs`` source whose
    label starts with ``label``."""
    spec = importlib.util.spec_from_file_location(
        "parity_digest", ROOT / "tools" / "parity_digest.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return [
        produce()
        for name, produce in getattr(tool, runs)()
        if name.startswith(label)
    ]


def test_the_digest_holds_the_verifiers_verdicts():
    """On the ``±2**62`` instance (the verifiers' wide fallback) each
    run digests the verdict on its answer and on fixed corruptions."""
    (*_, verdicts), = grid_results("wide set-intersection/tree ", "_wide_runs")
    assert verdicts == [
        ("answer", "ok"),
        ("non-member", "tree-intersect produced a wrong intersection (21 vs 20 elements)"),
        ("dropped", "tree-intersect produced a wrong intersection (19 vs 20 elements)"),
        ("at two nodes", "ok"),
    ]
    (*_, verdicts), = grid_results("wide equijoin/tree ", "_wide_runs")
    assert verdicts == [
        ("answer", "ok"),
        ("pair_bounds -1", "tree-equijoin joined 191 of 192 pairs"),
        ("pair_bounds +1", "tree-equijoin joined 193 of 192 pairs"),
    ]


def test_the_grid_runs_the_beta_paths():
    """Unequal relation sizes put β links and β leaves in the grid: the
    digest covers TreeIntersect's multi-block partition, StarIntersect's
    β leaves and unequal-star's α/β split, not only their one-block and
    all-α cases."""
    tree_blocks = [
        report["meta"]["result"]["num_blocks"]
        for report, *_ in grid_results("set-intersection/tree ")
    ]
    assert max(tree_blocks) > 1 and min(tree_blocks) == 1
    for label in ("set-intersection/star ", "cartesian-product/unequal-star "):
        splits = [
            outcome[0]["meta"]["result"]
            for outcome in grid_results(label)
            if outcome[0] != "refused"
        ]
        assert any(split["v_beta"] for split in splits), label
        assert any(split["v_alpha"] and split["v_beta"] for split in splits), label
