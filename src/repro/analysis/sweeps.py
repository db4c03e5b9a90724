"""Parametric sweeps and plain-text charts.

The paper's claims are about *trends* — cost tracking a bound across
input sizes, skew levels, bandwidth spreads.  A :class:`Sweep` runs a
runner over a parameter grid and collects named series;
:func:`ascii_chart` renders them as a character plot so examples and
logs can show the trend without a plotting dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.engine import run
from repro.errors import AnalysisError

_MARKERS = "ox+*#@%&"


@dataclass
class Sweep:
    """Collects ``(x, y)`` points into named series."""

    name: str = "sweep"
    series: dict = field(default_factory=dict)

    def add(self, series_name: str, x: float, y: float) -> None:
        self.series.setdefault(series_name, []).append((float(x), float(y)))

    def run(
        self,
        xs: Sequence[float],
        runners: Mapping[str, Callable[[float], float]],
    ) -> "Sweep":
        """Evaluate each named runner at each x; returns self."""
        for x in xs:
            for series_name, runner in runners.items():
                self.add(series_name, x, runner(x))
        return self

    def run_protocols(
        self,
        xs: Sequence[float],
        make_instance: Callable,
        *,
        task: str,
        protocols: Sequence[str],
        metric: str = "cost",
        seed: int = 0,
        opts: Mapping | None = None,
    ) -> "Sweep":
        """Sweep registered protocols over a parameter via the engine.

        ``make_instance(x)`` builds the ``(tree, distribution)`` pair for
        each grid point; every protocol contributes one series of the
        report attribute named by ``metric``, plus a shared
        ``lower-bound`` series when ``metric`` is ``"cost"``.  ``opts``
        are forwarded to every run unchanged — the hook the multi-input
        tasks need (``payload_bits=...`` for the relational operators,
        ``op=...`` for aggregation).  Returns self.
        """
        extra = dict(opts or {})
        for x in xs:
            tree, distribution = make_instance(x)
            for protocol in protocols:
                report = run(
                    task,
                    tree,
                    distribution,
                    protocol=protocol,
                    seed=seed,
                    **extra,
                )
                self.add(protocol, x, getattr(report, metric))
            if metric == "cost" and protocols:
                self.add("lower-bound", x, report.lower_bound)
        return self

    def ratios(self, numerator: str, denominator: str) -> list[float]:
        """Pointwise ratio of two series sharing the same x grid."""
        top = dict(self.series.get(numerator, []))
        bottom = dict(self.series.get(denominator, []))
        if set(top) != set(bottom):
            raise AnalysisError(
                f"series {numerator!r} and {denominator!r} have different x grids"
            )
        return [
            top[x] / bottom[x] if bottom[x] else float("inf")
            for x in sorted(top)
        ]

    def chart(self, **kwargs) -> str:
        return ascii_chart(self.series, title=self.name, **kwargs)


def _scale(value: float, lo: float, hi: float, steps: int, log: bool) -> int:
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0
    position = (value - lo) / (hi - lo)
    return min(steps - 1, max(0, round(position * (steps - 1))))


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    title: str | None = None,
    width: int = 64,
    height: int = 16,
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render named point series on a character canvas with a legend.

    Each series gets a marker; later series overwrite earlier ones on
    collisions.  Log scales require strictly positive coordinates.
    """
    points = [
        (x, y) for values in series.values() for (x, y) in values
    ]
    if not points:
        raise AnalysisError("nothing to plot")
    if (log_x and any(x <= 0 for x, _ in points)) or (
        log_y and any(y <= 0 for _, y in points)
    ):
        raise AnalysisError("log scales need positive coordinates")
    x_lo, x_hi = min(x for x, _ in points), max(x for x, _ in points)
    y_lo, y_hi = min(y for _, y in points), max(y for _, y in points)

    canvas = [[" "] * width for _ in range(height)]
    legend = []
    for index, (name, values) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        legend.append(f"{marker} {name}")
        for x, y in values:
            column = _scale(x, x_lo, x_hi, width, log_x)
            row = height - 1 - _scale(y, y_lo, y_hi, height, log_y)
            canvas[row][column] = marker

    y_labels = [f"{y_hi:.3g}", f"{y_lo:.3g}"]
    gutter = max(len(label) for label in y_labels) + 1
    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(canvas):
        if row_index == 0:
            prefix = y_labels[0].rjust(gutter)
        elif row_index == height - 1:
            prefix = y_labels[1].rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * gutter + "+" + "-" * width)
    x_left = f"{x_lo:.3g}"
    x_right = f"{x_hi:.3g}"
    padding = width - len(x_left) - len(x_right)
    lines.append(
        " " * (gutter + 1) + x_left + " " * max(1, padding) + x_right
    )
    lines.append("  ".join(legend))
    return "\n".join(lines)
