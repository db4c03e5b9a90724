"""Turn one traced pass's spans into a layer table whose rows sum to wall.

The harness opens a ``bench.op`` span around every public call (and a
``bench.optimize`` span around `optimize` in plan ops); everything nested in
them is the program's own spans, harvested by category.  A span's self time
is its duration minus the part its direct children cover, so summing self
times over the whole forest gives back the sum of the ``bench.op`` durations
exactly: the table sums to traced wall by construction, and whatever lands in
no named row is counted as ``unattributed``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.tracer import MAIN_TRACK

#: Layer-table rows, in print order.
ROWS = (
    "session",
    "plan.optimize",
    "plan.execute",
    "core",
    "sim.group",
    "sim.deliver",
    "sim.charge",
    "sim.round_other",
    "parallel.barrier",
    "verify",
    "bound",
    "unattributed",
)

#: Span category -> row that receives the span's self time.  ``round`` and
#: ``bench.op`` are split by hand below.
ROW_OF = {
    "bench.optimize": "plan.optimize",
    "plan": "plan.execute",
    "stage": "plan.execute",
    "engine": "core",
    "superstep": "core",
    "barrier": "parallel.barrier",
    "verify": "verify",
    "bound": "bound",
}


class PassLayers:
    """Self-time rows, inclusive span totals and counts of one traced pass."""

    def __init__(self, events, *, session_ops: bool) -> None:
        self.rows = dict.fromkeys(ROWS, 0.0)
        #: inclusive seconds by category (outermost spans only for engine)
        self.inclusive = defaultdict(float)
        self.counts = defaultdict(int)
        self.phase_s = {"group": 0.0, "deliver": 0.0, "charge": 0.0}
        self.elements_moved = 0
        main = sorted(
            (e for e in events if e.track == MAIN_TRACK),
            key=lambda e: (e.start, e.depth),
        )
        covered = defaultdict(float)  # span index -> seconds under children
        barrier_in = defaultdict(float)  # round index -> barrier seconds in it
        stack = []
        for event in main:
            del stack[event.depth :]
            category = event.attrs.get("category")
            if stack:
                parent = stack[-1]
                covered[parent.index] += event.duration
                if category == "barrier":
                    barrier_in[parent.index] += event.duration
            nested_engine = category == "engine" and any(
                s.attrs.get("category") == "engine" for s in stack
            )
            if not nested_engine:
                self.inclusive[category] += event.duration
            self.counts[category] += 1
            stack.append(event)
        for event in main:
            category = event.attrs.get("category")
            self_s = event.duration - covered[event.index]
            if category == "round":
                self._split_round(event, self_s, barrier_in[event.index])
            elif category == "bench.op":
                self.rows["session" if session_ops else "unattributed"] += self_s
            else:
                self.rows[ROW_OF.get(category, "unattributed")] += self_s

    def _split_round(self, event, self_s: float, barrier_s: float) -> None:
        # The process substrate's barrier runs inside the deliver phase, so
        # its span is taken out of deliver and shown in its own row.
        attrs = event.attrs
        group = attrs.get("t_group_s", 0.0)
        deliver = attrs.get("t_deliver_s", 0.0)
        charge = attrs.get("t_charge_s", 0.0)
        self.phase_s["group"] += group
        self.phase_s["deliver"] += deliver
        self.phase_s["charge"] += charge
        self.elements_moved += sum(attrs.get("elements_by_tag", {}).values())
        deliver_self = deliver - barrier_s
        self.rows["sim.group"] += group
        self.rows["sim.deliver"] += deliver_self
        self.rows["sim.charge"] += charge
        self.rows["sim.round_other"] += self_s - group - deliver_self - charge

    @property
    def wall_s(self) -> float:
        return self.inclusive["bench.op"]


def format_table(rows: dict, wall_s: float) -> list[str]:
    """The layer table as text lines; the last line states the sum."""
    lines = [f"{'layer':<18}{'seconds':>12}{'share':>9}"]
    for name in ROWS:
        share = rows[name] / wall_s if wall_s else 0.0
        lines.append(f"{name:<18}{rows[name]:>12.6f}{share:>8.1%}")
    lines.append(
        f"{'sum':<18}{sum(rows.values()):>12.6f}   traced wall {wall_s:.6f}"
    )
    return lines
