"""Smoke grid for the benchmark harness (run with `python -m pytest bench -q`;
tier-1 collects `tests/` only).

Every run is a child process, exactly as the driver starts it.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MIN_PASSES = 6  # run.py sums the simulated cost over this many passes

#: Must repeat exactly for a seed (simulated statistics and cache decisions).
EXACT_LAYER = (
    "sim.round_count",
    "sim.elements_moved",
    "util.group_cache_hits",
    "util.group_cache_misses",
    "util.assign_cache_hits",
    "util.assign_cache_misses",
    "graphs.superstep_count",
    "plan.stage_count",
    "engine.bound_calls",
)


def run(workload, seed, trace, out):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0",
         "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    return last["metrics"], json.loads(out.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return {
        (seed, trace): run(request.param, seed, trace, tmp / f"{seed}-{trace}.json")
        for seed, trace in ((7, 0), (7, 1), (8, 0))
    } | {"again": run(request.param, 7, 1, tmp / "again.json")}


def test_declared_metrics_are_emitted_and_finite(runs):
    for (_, trace), declared in (((7, 0), "end_to_end"), ((7, 1), "per_layer")):
        metrics, _ = runs[7, trace]
        assert set(metrics) == {m["name"] for m in SPEC[declared]}
        for spec in SPEC[declared]:
            got = metrics[spec["name"]]
            assert got["unit"] == spec["unit"]
            assert math.isfinite(got["value"])
    assert all(m["value"] > 0 for m in runs[7, 0][0].values())


def test_layer_table_sums_to_traced_wall(runs):
    _, record = runs[7, 1]
    # traced wall is the sum of the harness's op spans; the rows are self
    # times of the spans under them, so the two agree up to float error
    table_sum = sum(record["layer_table"].values())
    assert math.isclose(table_sum, record["traced_wall_s"], rel_tol=1e-9)


def test_same_seed_repeats_exactly(runs):
    (first, a), (again, b) = runs[7, 1], runs["again"]
    for name in EXACT_LAYER:
        assert first[name]["value"] == again[name]["value"], name
    assert a["inputs_digest"] == b["inputs_digest"]
    assert a["pass0_costs"] == b["pass0_costs"] == runs[7, 0][1]["pass0_costs"]
    # traced or not, a seed's passes cost the same: `model_cost_elements`
    costs = [
        [p["model_cost"] for p in record["passes"][:MIN_PASSES]]
        for record in (a, b, runs[7, 0][1])
    ]
    assert costs[0] == costs[1] == costs[2]
    assert sum(costs[2]) == runs[7, 0][0]["model_cost_elements"]["value"]


def test_other_seed_changes_the_inputs(runs):
    assert runs[7, 0][1]["inputs_digest"] != runs[8, 0][1]["inputs_digest"]


def test_process_backend_costs_equal_sim(tmp_path):
    fresh, _ = run("batch_fresh", 7, 0, tmp_path / "fresh.json")
    process, _ = run("batch_process", 7, 0, tmp_path / "process.json")
    assert (
        fresh["model_cost_elements"]["value"]
        == process["model_cost_elements"]["value"]
    )


def test_no_process_outlives_a_run():
    # batch_process starts the worker pool and, through the pool's shared
    # memory, multiprocessing's resource tracker, which left alone ends only
    # a second or two after its parent.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0",
         "--workload", "batch_process"],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[3]) == proc.pid:  # its session
            left.append(stat)
    assert left == []


def test_host_slowness_reads_the_samples_around_an_interval():
    sys.path.insert(0, str(BENCH))
    import host

    clock = host.HostClock()
    clock.at = [0.0, 0.9, 1.0, 3.0, 3.1, 9.0]
    clock.took = [host.REFERENCE_S * f for f in (9.0, 1.0, 2.0, 2.0, 3.0, 9.0)]
    assert clock.slowness(1.1, 2.9) == 2.0  # 0.9 ... 3.1, not 0.0 and 9.0
    clock.sample()
    assert len(clock.at) == 7 and clock.took[-1] > 0.0


def test_size_guard_counts_a_failure_instead_of_running():
    sys.path.insert(0, str(BENCH.parent / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    assert workloads.worst_intermediate_rows(200, 1024, 3) < 10**6
    oom_killed = workloads.worst_intermediate_rows(20_000, 1024, 3)
    assert oom_killed > 10**8
    op = workloads.Op("plan/chain-4", "plan", {}, worst_rows=oom_killed)
    with pytest.raises(workloads.SizeGuardError):
        op.check_size()
