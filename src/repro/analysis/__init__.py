"""Experiment harness: run protocols against instances, compare to bounds.

Execution lives in :mod:`repro.engine` (the single ``run()`` entry point
plus the ``run_many`` batch API), each run returning a
:class:`repro.report.RunReport` with cost, lower bound, ratio, and round
count.  :mod:`repro.analysis.suites` defines the standard
topology/placement grid the Table 1 benchmark sweeps, and
:func:`suites.standard_plans` exposes that grid as engine plans.
"""

from repro.report import RunReport, aggregate, summarize_reports
from repro.analysis.suites import (
    placement_policies,
    standard_plans,
    standard_topologies,
)
from repro.analysis.sweeps import Sweep, ascii_chart

__all__ = [
    "RunReport",
    "aggregate",
    "summarize_reports",
    "standard_topologies",
    "standard_plans",
    "placement_policies",
    "Sweep",
    "ascii_chart",
]
