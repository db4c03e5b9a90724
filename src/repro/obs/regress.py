"""Bench-trajectory regression sentinel: is the latest run still fast?

The bench harnesses (:mod:`repro.analysis.scale`,
:mod:`repro.analysis.serve`) append one run per invocation to the
committed trajectory files ``BENCH_SCALE.json`` / ``BENCH_SERVE.json``.
This module turns those trajectories into a pass/warn/fail verdict:

* the **latest** run is compared case-by-case against a **baseline**
  built as the median of all *prior* runs on the same grid (a small CI
  run never baselines a full local run, and vice versa);
* each metric carries a tolerance band (:class:`Band`): a normalized
  ratio below ``fail_below`` fails the check, below ``warn_below``
  warns.  Ratios are normalized so 1.0 means "identical to baseline"
  and smaller is worse, whether the metric is higher-is-better
  (``speedup``) or lower-is-better (raw seconds);
* cost determinism is gated separately: ``cost_elements`` must equal
  every prior observation bit-for-bit, and the per-case
  ``identical`` oracle flag must be true — either breaking is a
  **fail** regardless of timing noise.

Wall-clock metrics are deliberately warn-only (CI machines vary), so
the merge gate for the committed trajectories is cost determinism and
byte-identity; the 0.85 speedup floor of :data:`DEFAULT_BANDS` applies
to benchmarks without an entry in :data:`BANDS`.  A trajectory with no
prior runs on the latest grid passes with a ``no baseline`` note — the
sentinel needs history before it can bite.

Used by ``python -m repro bench check [FILE ...]`` and the CI
bench-smoke job.  The file schema is documented in ``DESIGN.md``.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from repro.errors import AnalysisError

#: Verdict severity, worst wins when aggregating.
SEVERITY = {"pass": 0, "warn": 1, "fail": 2}

#: Normalized-ratio floor for warn-only wall-clock metrics: 2/3 means
#: "1.5x slower than the baseline median" before the sentinel speaks up.
_TIMING_WARN = 2.0 / 3.0


@dataclass(frozen=True)
class Band:
    """Tolerance band for one metric of one benchmark family.

    ``fail_below`` / ``warn_below`` are thresholds on the *normalized*
    ratio (1.0 = baseline, lower = worse); ``None`` disables that
    severity for the metric.
    """

    metric: str
    higher_is_better: bool = True
    fail_below: float | None = None
    warn_below: float | None = None

    def normalized(self, latest: float, baseline: float) -> float | None:
        """Latest-vs-baseline ratio, oriented so < 1.0 is a regression."""
        if self.higher_is_better:
            return latest / baseline if baseline else None
        return baseline / latest if latest else None

    def verdict(self, ratio: float | None) -> str:
        if ratio is None:
            return "pass"
        if self.fail_below is not None and ratio < self.fail_below:
            return "fail"
        if self.warn_below is not None and ratio < self.warn_below:
            return "warn"
        return "pass"


#: Per-benchmark tolerance bands.  The ``bench_scale`` speedup is real
#: parallel wall-clock and observed to swing ~25% run-to-run, so it
#: only warns.
BANDS: dict[str, tuple[Band, ...]] = {
    "bench_scale": (
        Band("speedup", warn_below=0.75),
        Band("seconds", higher_is_better=False, warn_below=_TIMING_WARN),
    ),
    # Serve throughput is end-to-end wall clock (cold and warm replays
    # in one process), noisy — the cold/warm ratio warns; the
    # byte-identity flag failing is handled by the identity gate
    # below, never by timing bands.
    "bench_serve": (
        Band("speedup", warn_below=0.75),
        Band("warm_s", higher_is_better=False, warn_below=_TIMING_WARN),
        Band("cold_s", higher_is_better=False, warn_below=_TIMING_WARN),
    ),
}

#: Fallback for unknown benchmark names: gate on speedup if present.
DEFAULT_BANDS: tuple[Band, ...] = (
    Band("speedup", fail_below=0.85, warn_below=0.95),
    Band("seconds", higher_is_better=False, warn_below=_TIMING_WARN),
)

#: Oracle byte-identity flag: false in the latest run is always a fail.
_IDENTITY_FLAG = "identical"


@dataclass
class Check:
    """One (case, metric) comparison in the verdict table."""

    case: str
    metric: str
    verdict: str
    latest: float | None = None
    baseline: float | None = None
    ratio: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "metric": self.metric,
            "verdict": self.verdict,
            "latest": self.latest,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "note": self.note,
        }


def load_trajectory(path) -> dict:
    """Read and schema-check one ``BENCH_*.json`` trajectory file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        raise AnalysisError(f"cannot read trajectory {path!r}: {error}")
    except ValueError as error:
        raise AnalysisError(f"trajectory {path!r} is not JSON: {error}")
    if not isinstance(data, dict) or "runs" not in data:
        raise AnalysisError(
            f"trajectory {path!r} lacks the top-level 'runs' list"
        )
    runs = data["runs"]
    if not isinstance(runs, list) or not runs:
        raise AnalysisError(f"trajectory {path!r} records no runs")
    for index, run in enumerate(runs):
        if not isinstance(run, dict) or not isinstance(
            run.get("cases"), list
        ):
            raise AnalysisError(
                f"trajectory {path!r} run {index} lacks a 'cases' list"
            )
    return data


def _case_key(case: dict) -> tuple:
    """Identity of a case across runs (workers only set for scale)."""
    return (
        case.get("name"),
        case.get("topology"),
        case.get("workers"),
    )


def _case_label(case: dict) -> str:
    label = f"{case.get('name', '?')} @ {case.get('topology', '?')}"
    if case.get("workers") is not None:
        label += f" w={case['workers']}"
    return label


def check_trajectory(data: dict, *, bands=None) -> list[Check]:
    """Compare a trajectory's latest run against its own history."""
    if bands is None:
        bands = BANDS.get(data.get("benchmark"), DEFAULT_BANDS)
    runs = data["runs"]
    latest = runs[-1]
    prior = [
        run
        for run in runs[:-1]
        if run.get("grid") == latest.get("grid")
    ]
    history: dict[tuple, list[dict]] = {}
    for run in prior:
        for case in run["cases"]:
            history.setdefault(_case_key(case), []).append(case)
    checks: list[Check] = []
    for case in latest["cases"]:
        label = _case_label(case)
        seen = history.get(_case_key(case), [])
        checks.extend(_check_identity(case, seen, label))
        if not seen:
            checks.append(
                Check(label, "-", "pass", note="no baseline")
            )
            continue
        for band in bands:
            if band.metric not in case:
                continue
            values = [
                c[band.metric] for c in seen if band.metric in c
            ]
            if not values:
                checks.append(
                    Check(
                        label,
                        band.metric,
                        "pass",
                        latest=case[band.metric],
                        note="no baseline",
                    )
                )
                continue
            baseline = statistics.median(values)
            ratio = band.normalized(case[band.metric], baseline)
            checks.append(
                Check(
                    label,
                    band.metric,
                    band.verdict(ratio),
                    latest=case[band.metric],
                    baseline=baseline,
                    ratio=ratio,
                )
            )
    return checks


def _check_identity(case, seen, label) -> list[Check]:
    """Determinism gates: oracle flag true, cost bit-stable."""
    checks = []
    if not case.get(_IDENTITY_FLAG, True):
        checks.append(
            Check(
                label,
                _IDENTITY_FLAG,
                "fail",
                note="oracle byte-identity flag is false",
            )
        )
    cost = case.get("cost_elements")
    if cost is not None:
        previous = {
            c["cost_elements"] for c in seen if "cost_elements" in c
        }
        if previous and previous != {cost}:
            checks.append(
                Check(
                    label,
                    "cost_elements",
                    "fail",
                    latest=cost,
                    note=(
                        "ledger cost drifted from prior runs "
                        f"{sorted(previous)}"
                    ),
                )
            )
    return checks


def overall_verdict(checks: list[Check]) -> str:
    """Worst verdict across the table (``pass`` for an empty table)."""
    worst = "pass"
    for check in checks:
        if SEVERITY[check.verdict] > SEVERITY[worst]:
            worst = check.verdict
    return worst


def check_trajectory_file(path, *, bands=None):
    """Load, check, and summarize one file: ``(verdict, checks)``."""
    checks = check_trajectory(load_trajectory(path), bands=bands)
    return overall_verdict(checks), checks


def regression_table(checks: list[Check]):
    """Render the verdict table: ``(headers, rows)`` for ``render_table``."""
    headers = ["case", "metric", "latest", "baseline", "ratio", "verdict"]
    fmt = lambda value: "-" if value is None else f"{value:.4g}"
    rows = [
        [
            check.case,
            check.metric,
            fmt(check.latest),
            fmt(check.baseline),
            fmt(check.ratio),
            check.verdict + (f" ({check.note})" if check.note else ""),
        ]
        for check in checks
    ]
    return headers, rows
