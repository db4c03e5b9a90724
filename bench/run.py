#!/usr/bin/env python3
"""The repo's benchmark: five workloads, one process, one closed-loop client.

    python3 bench/run.py --workload serve_mix --seed 7 --seconds 20
    python3 bench/run.py --workload serve_mix --seed 7 --seconds 20 --trace
    python3 bench/run.py --all --out 'results/{workload}.json'

Prints every metric as ``name value unit``, then (last line) one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json without ``--trace``, the per-layer metrics with it.  Exits
non-zero if any op failed.  See README.md in this directory.
"""

from __future__ import annotations

import time

#: `setup_s` counts from here: the imports below are part of a cold start.
HARNESS_START = time.perf_counter()

import os

# Pin BLAS/OpenMP pools before NumPy loads: the program is measured as one
# thread (plus its own worker processes), not as whatever the host's BLAS
# decides to spawn.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import repro
from repro.topology.artifacts import ArtifactCache
from repro.util.grouping import GROUP_CACHE
from repro.util.hashing import ASSIGN_CACHE

from host import REFERENCE_S, HostClock
from layers import ROWS, PassLayers, format_table
from workloads import FULL, SMOKE, WORKLOADS, input_elements

IMPORTS_S = time.perf_counter() - HARNESS_START

#: Every run sets up this many times from nothing (memos cleared; new tree,
#: session, pool, warm-up ops, pass-0 inputs) and reports the median.  Each
#: sample includes the imports, which a process can time only once.
SETUP_REPEATS = 3
#: Address-space cap for this process and its workers.  A mis-sized op then
#: fails with MemoryError (a counted failure) instead of taking the host down.
RLIMIT_AS_BYTES = 4 << 30
TRACE_MAX_EVENTS = 2_000_000
#: Passes every run makes, however short ``--seconds`` is.  The simulated
#: cost is summed over these alone, so it repeats exactly for a seed whatever
#: number of passes the host had time for.
MIN_PASSES = 6

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "queries/s",
    "elements_per_s": "elements/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MiB",
    "model_cost_elements": "elements",
}

LAYER_UNITS = {
    "session.self_s": "s",
    "session.artifact_cache_hit_ratio": "ratio",
    "session.plan_cache_hit_ratio": "ratio",
    "plan.optimize_s": "s",
    "plan.execute_s": "s",
    "plan.stage_count": "count",
    "engine.run_s": "s",
    "engine.verify_s": "s",
    "engine.bound_s": "s",
    "engine.bound_calls": "count",
    "engine.bound_violations": "count",
    "engine.unreported_wait_frac": "ratio",
    "core.protocol_local_s": "s",
    "sim.round_count": "count",
    "sim.round_s": "s",
    "sim.group_s": "s",
    "sim.deliver_s": "s",
    "sim.charge_s": "s",
    "sim.elements_moved": "elements",
    "util.group_cache_hits": "count",
    "util.group_cache_misses": "count",
    "util.assign_cache_hits": "count",
    "util.assign_cache_misses": "count",
    "topology.artifacts_build_s": "s",
    "topology.side_weights_s": "s",
    "graphs.superstep_count": "count",
    "graphs.superstep_s": "s",
    "parallel.pool_start_s": "s",
    "parallel.barrier_count": "count",
    "parallel.barrier_s": "s",
    "data.generate_s": "s",
    "obs.tracing_overhead_frac": "ratio",
    "obs.spans_recorded": "count",
    "obs.spans_dropped": "count",
    "bench.unattributed_frac": "ratio",
    "bench.quiet_pass_s": "s",
    "bench.host_slowness": "ratio",
    "failed_ops_frac": "ratio",
}


def cap_address_space() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = RLIMIT_AS_BYTES
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def memo_counts() -> tuple[int, int, int, int]:
    return (
        GROUP_CACHE.hits,
        GROUP_CACHE.misses,
        ASSIGN_CACHE.hits,
        ASSIGN_CACHE.misses,
    )


def clear_memos() -> None:
    GROUP_CACHE.clear()
    ASSIGN_CACHE.clear()
    gc.collect()


def peak_rss_mib(worker_pids) -> float:
    """Peak resident set of this process plus its live workers, in MiB."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024


def inputs_digest(ops) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for op in ops:
        digest.update(op.label.encode())
        for array in op.arrays():
            digest.update(np.ascontiguousarray(array).data)
    return digest.hexdigest()


class PassRecord:
    """What one pass did: per-op samples, and its layers if it was traced."""

    def __init__(self, k: int, traced: bool) -> None:
        self.k = k
        self.traced = traced
        self.generate_s = 0.0
        self.starts: list[float] = []  # perf_counter at the start of each op
        self.latencies: list[float] = []  # wall seconds, as timed
        self.corrected: list[float] = []  # the same over the host's slowness
        self.labels: list[str] = []
        self.costs: list[float] = []
        self.elements = 0
        self.reported_s = 0.0  # sum of report.wall_time_s
        self.bound_violations = 0
        self.failures: list[str] = []
        self.memo_delta = (0, 0, 0, 0)
        self.layers: PassLayers | None = None
        self.spans_recorded = 0
        self.spans_dropped = 0

    @property
    def time_s(self) -> float:
        return sum(self.corrected)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def to_dict(self) -> dict:
        return {
            "pass": self.k,
            "traced": self.traced,
            "ops": len(self.latencies),
            "failed": len(self.failures),
            "time_s": self.time_s,
            "wall_s": self.wall_s,
            "generate_s": self.generate_s,
            "elements": self.elements,
            "model_cost": sum(self.costs),
            "op_labels": self.labels,
            "op_latencies_s": self.corrected,
            "op_wall_s": self.latencies,
            "op_started_s": self.starts,
        }


def run_pass(workload, ops, record: PassRecord, host: HostClock) -> None:
    """Run one pass's ops in order, one at a time, timing each public call
    and sampling the host's speed between them."""

    def one(op, tracer) -> float:
        try:
            op.check_size()
            started = time.perf_counter()
            report = workload.call(op, tracer)
            elapsed = time.perf_counter() - started
        except Exception as error:  # a failed op is counted, never fatal
            record.failures.append(f"{op.label}: {type(error).__name__}: {error}")
            return 0.0
        record.starts.append(started)
        record.latencies.append(elapsed)
        record.labels.append(op.label)
        record.costs.append(float(report.cost))
        record.elements += input_elements(report)
        record.reported_s += report.wall_time_s or 0.0
        if report.cost < report.lower_bound:
            record.bound_violations += 1
        return elapsed

    host.sample()
    before = memo_counts()
    if record.traced:
        with repro.tracing(max_events=TRACE_MAX_EVENTS) as tracer:
            for op in ops:
                with tracer.span(op.label, category="bench.op"):
                    elapsed = one(op, tracer)
                host.after(elapsed)
        record.layers = PassLayers(
            tracer.events, session_ops=workload.uses_session
        )
        record.spans_recorded = len(tracer.events)
        record.spans_dropped = tracer.dropped
    else:
        for op in ops:
            host.after(one(op, None))
    record.memo_delta = tuple(b - a for a, b in zip(before, memo_counts()))
    record.corrected = [
        elapsed / host.slowness(started, started + elapsed)
        for started, elapsed in zip(record.starts, record.latencies)
    ]


def probe_topology(workload) -> tuple[float, float]:
    """Cold artifact build and one side_weights call on the workload's tree."""
    tree = workload.build_tree()
    started = time.perf_counter()
    ArtifactCache().get(tree).oracle.routing_index
    build_s = time.perf_counter() - started
    weights = dict.fromkeys(workload.tree.compute_nodes, 1)
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        workload.tree.side_weights(weights)
        samples.append(time.perf_counter() - started)
    return build_s, statistics.median(samples)


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def quiet_pass_s(passes) -> float:
    """Seconds one pass would take if every op ran as fast as the fastest
    sample of its class (its label: one task on one placement slot, one plan
    shape) in any pass.  A side metric, never gated: on a shared host it says
    how much of the measured wall is interference, and nothing about tails.
    """
    quiet: dict[str, float] = {}
    for record in passes:
        for label, latency in zip(record.labels, record.latencies):
            quiet[label] = min(latency, quiet.get(label, latency))
    return sum(quiet[label] for label in passes[0].labels)


def timing_metrics(passes, corrected: bool) -> dict:
    """Medians over the passes, percentiles over every op sample: of the
    seconds corrected for the host's slowness (host.py), or of the wall
    seconds as they were timed."""
    per_pass = [p.corrected if corrected else p.latencies for p in passes]
    samples = [latency for ops in per_pass for latency in ops]
    return {
        "ops_per_s": statistics.median(len(ops) / sum(ops) for ops in per_pass),
        "elements_per_s": statistics.median(
            p.elements / sum(ops) for p, ops in zip(passes, per_pass)
        ),
        "latency_p50_ms": 1e3 * float(np.percentile(samples, 50)),
        "latency_p95_ms": 1e3 * float(np.percentile(samples, 95)),
    }


def end_to_end_metrics(setup_samples, passes, peak_mib) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        **timing_metrics(passes, corrected=True),
        "peak_rss_mb": peak_mib,
        "model_cost_elements": sum(sum(p.costs) for p in passes[:MIN_PASSES]),
    }


def per_layer_metrics(
    workload, passes, generate_s, topology_probe, failed_frac, host_slowness
) -> tuple[dict, dict, float]:
    """Per-layer metrics, the summed layer table, and its traced wall.

    Times are means per traced pass; counts come from the first traced pass
    alone, so they repeat exactly for a seed whatever the time budget.
    """
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = traced[0]
    n = len(traced)
    table = {name: sum(p.layers.rows[name] for p in traced) for name in ROWS}
    wall_s = sum(p.layers.wall_s for p in traced)

    def mean_inclusive(category):
        return sum(p.layers.inclusive[category] for p in traced) / n

    def mean_phase(phase):
        return sum(p.layers.phase_s[phase] for p in traced) / n

    session = workload.session
    artifact = session.artifact_cache if session else None
    plan = session.plan_cache if session else None
    op_time = sum(p.wall_s for p in passes)
    build_s, side_weights_s = topology_probe
    metrics = {
        "session.self_s": table["session"] / n,
        "session.artifact_cache_hit_ratio": (
            ratio(artifact.hits, artifact.misses) if artifact else 0.0
        ),
        "session.plan_cache_hit_ratio": ratio(plan.hits, plan.misses) if plan else 0.0,
        "plan.optimize_s": table["plan.optimize"] / n,
        "plan.execute_s": mean_inclusive("plan"),
        "plan.stage_count": first.layers.counts["stage"],
        "engine.run_s": mean_inclusive("engine"),
        "engine.verify_s": mean_inclusive("verify"),
        "engine.bound_s": mean_inclusive("bound"),
        "engine.bound_calls": first.layers.counts["bound"],
        "engine.bound_violations": first.bound_violations,
        "engine.unreported_wait_frac": 1.0 - sum(p.reported_s for p in passes) / op_time,
        "core.protocol_local_s": table["core"] / n,
        "sim.round_count": first.layers.counts["round"],
        "sim.round_s": mean_inclusive("round"),
        "sim.group_s": mean_phase("group"),
        "sim.deliver_s": mean_phase("deliver"),
        "sim.charge_s": mean_phase("charge"),
        "sim.elements_moved": first.layers.elements_moved,
        "util.group_cache_hits": first.memo_delta[0],
        "util.group_cache_misses": first.memo_delta[1],
        "util.assign_cache_hits": first.memo_delta[2],
        "util.assign_cache_misses": first.memo_delta[3],
        "topology.artifacts_build_s": build_s,
        "topology.side_weights_s": side_weights_s,
        "graphs.superstep_count": first.layers.counts["superstep"],
        "graphs.superstep_s": mean_inclusive("superstep"),
        "parallel.pool_start_s": workload.pool_start_s,
        "parallel.barrier_count": first.layers.counts["barrier"],
        "parallel.barrier_s": mean_inclusive("barrier"),
        "data.generate_s": generate_s,
        "obs.tracing_overhead_frac": (
            statistics.median(p.time_s for p in traced)
            / statistics.median(p.time_s for p in untraced)
            - 1.0
        ),
        "obs.spans_recorded": first.spans_recorded,
        "obs.spans_dropped": sum(p.spans_dropped for p in traced),
        "bench.unattributed_frac": table["unattributed"] / wall_s,
        "bench.quiet_pass_s": quiet_pass_s(untraced),
        "bench.host_slowness": host_slowness,
        "failed_ops_frac": failed_frac,
    }
    return metrics, table, wall_s


def child_pids() -> list[int]:
    """Processes whose parent is this one, read from /proc."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # gone between listdir and read
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Leave no process behind: stop and wait for all this one still has.

    The shared-memory segments of the process backend start
    multiprocessing's resource tracker, a child that otherwise ends only
    after this process has exited and is then still there for a second or
    two.  Closing its pipe ends it; by now the pool has unlinked every
    segment, so it has nothing left to do.  Whatever else is left (workers
    of a pool that a signal caught half built, before `shutdown_pools` knew
    of it) is killed.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes the pipe, then waits for the tracker
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def exit_on_signal(signum, frame) -> None:
    # As an exception, so that the `finally` of run_workload still runs.
    raise SystemExit(128 + signum)


def run_workload(args) -> int:
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, exit_on_signal)
    rlimit = cap_address_space()
    workload = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL)
    try:
        return measure(args, workload, rlimit)
    finally:
        try:
            workload.teardown()  # stops and joins the worker pool, if any
        finally:
            stop_children()


def set_up(workload, host: HostClock):
    """One set-up from nothing: memos cleared, then tree, session / pool,
    warm-up ops and the inputs of pass 0.  Returns the pass-0 ops, the wall
    seconds the set-up took, how slow the host was around it, and the wall
    seconds that generated the inputs."""
    workload.teardown()
    clear_memos()
    host.sample()
    started = time.perf_counter()
    workload.setup()
    generated = time.perf_counter()
    ops = workload.make_pass(0)
    finished = time.perf_counter()
    host.after(finished - started)
    return ops, finished - started, host.slowness(started, finished), finished - generated


def measure(args, workload, rlimit: int) -> int:
    """Set up, check, run passes until the time is up, print and record."""
    host = HostClock()
    host.after(IMPORTS_S)
    imports_s = IMPORTS_S / host.slowness(HARNESS_START, HARNESS_START + IMPORTS_S)
    setup_samples: list[float] = []  # corrected for the host's slowness
    setup_wall: list[float] = []
    ops = None  # only one set-up's inputs alive at a time
    for _ in range(SETUP_REPEATS):
        ops, setup_s, slowness, generate_first_s = set_up(workload, host)
        setup_samples.append(imports_s + setup_s / slowness)
        setup_wall.append(IMPORTS_S + setup_s)

    digest = inputs_digest(ops)
    checks = workload.check()
    check_failures = [label for label, ok in checks if not ok]

    passes: list[PassRecord] = []
    deadline = time.perf_counter() + args.seconds
    generate_s = [generate_first_s]
    while True:
        k = len(passes)
        # Traced runs alternate untraced and traced passes, so tracing
        # overhead is read from passes of one process and one warm state.
        record = PassRecord(k, traced=bool(args.trace) and k % 2 == 1)
        if k:
            started = time.perf_counter()
            ops = workload.make_pass(k)
            generate_s.append(time.perf_counter() - started)
        record.generate_s = generate_s[-1]
        if workload.fresh:
            clear_memos()
        run_pass(workload, ops, record, host)
        del ops
        passes.append(record)
        if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
    peak_mib = peak_rss_mib(workload.worker_pids())
    host_slowness = statistics.median(host.took) / REFERENCE_S

    attempted = len(checks) + sum(len(p.latencies) + len(p.failures) for p in passes)
    failures = check_failures + [f for p in passes for f in p.failures]
    timed = [p for p in passes if not p.traced and p.latencies]
    failed_frac = len(failures) / max(attempted, 1)
    layer_table = wall_s = None
    if not timed or (args.trace and not any(p.latencies for p in passes if p.traced)):
        metrics, units = {}, {}
    elif args.trace:
        metrics, layer_table, wall_s = per_layer_metrics(
            workload,
            passes,
            statistics.median(generate_s),
            probe_topology(workload),
            failed_frac,
            host_slowness,
        )
        units = LAYER_UNITS
    else:
        metrics = end_to_end_metrics(setup_samples, timed, peak_mib)
        units = E2E_UNITS

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} smoke {int(args.smoke)}")
    print(f"host nproc {os.cpu_count()} loadavg {os.getloadavg()[0]:.2f} "
          f"python {platform.python_version()} numpy {np.__version__} "
          f"rlimit_as {rlimit >> 20} MiB")
    samples = sum(len(p.latencies) for p in timed)
    print(f"passes {len(passes)} ops {attempted} failed {len(failures)}; "
          f"{samples} untraced op samples, {samples // 20} beyond p95; "
          f"set-ups {[round(s, 4) for s in setup_samples]} s, imports {imports_s:.4f} s of each")
    print(f"host slowness {host_slowness:.3f} at the median of {len(host.took)} reference "
          f"samples ({min(host.took) / REFERENCE_S:.3f} to {max(host.took) / REFERENCE_S:.3f}); "
          f"as timed, before the correction: set-ups {[round(s, 4) for s in setup_wall]} s")
    if timed:
        for name, value in timing_metrics(timed, corrected=False).items():
            print(f"wall.{name} {value:.6g} {E2E_UNITS[name]}")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"failed_ops_frac {failed_frac:.6g} ratio")
    if layer_table is not None:
        print(f"layer table ({sum(p.traced for p in passes)} traced passes)")
        for line in format_table(layer_table, wall_s):
            print(line)

    result = {
        "correct": not failures and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "smoke": args.smoke,
                    "host": {
                        "nproc": os.cpu_count(),
                        "loadavg": os.getloadavg(),
                        "python": platform.python_version(),
                        "numpy": np.__version__,
                        "rlimit_as_bytes": rlimit,
                    },
                    "setup_samples_s": setup_samples,
                    "setup_wall_s": setup_wall,
                    "host_slowness": host_slowness,
                    "host_samples": {"at_s": host.at, "took_s": host.took},
                    "inputs_digest": digest,
                    "passes": [p.to_dict() for p in passes],
                    "pass0_costs": list(zip(passes[0].labels, passes[0].costs)),
                    "layer_table": layer_table,
                    "traced_wall_s": wall_s,
                    "failures": failures,
                    **result,
                },
                indent=1,
                allow_nan=False,
            )
            + "\n"
        )
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own child, one after another, so peak RSS, memo
    state and import time of one never leak into the next."""
    if args.out and "{workload}" not in args.out:
        sys.exit("bench: with --all, --out needs a {workload} placeholder")
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, __file__,
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", args.out.replace("{workload}", name)]
        sys.stdout.flush()
        status |= subprocess.run(command).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, one child process each")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting passes until this much time has passed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true", help="16-leaf trees, tiny inputs")
    parser.add_argument("--out", help="also write the full JSON record here")
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
