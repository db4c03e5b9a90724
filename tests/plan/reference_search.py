"""The join-order search one order at a time: the reference for the
optimizer's lockstep search.

Each connected order is walked and then beam-searched on its own, every
stage it reaches scored through a one-row :meth:`CostModel.join_stages`
stack and kept in the compile's stage table.  The search is the one the
optimizer runs — the same stable sort, the same per-profile dedupe, the
same :data:`PROTOCOL_BEAM`, the first of equals in permutation order —
without the batching, so a compile through :func:`reference_stages`
must return the stages ``optimize`` returns, ``repr`` for ``repr``.
"""

from itertools import permutations

from repro.errors import PlanError
from repro.plan.cost import RelationStats
from repro.plan.optimizer import PROTOCOL_BEAM, _Candidate, _Collision, _Compiler


class _PerOrderCompiler(_Compiler):
    def _choose_order(self, compiled, conditions) -> _Candidate:
        k = len(compiled)
        collision = None

        def scored(order):
            nonlocal collision
            try:
                return self._simulate(compiled, conditions, order)
            except _Collision as error:
                collision = collision or error.args[0]
                return None

        if self.strategy == "gather":
            candidate = scored(tuple(range(k)))
            if candidate is not None:
                return candidate
        pick = max if self.strategy == "worst-order" else min
        candidates = filter(None, map(scored, permutations(range(k))))
        best = pick(candidates, key=lambda candidate: candidate.cost, default=None)
        if best is None:
            if collision is not None:
                raise PlanError(
                    f"no join order avoids a repeated column: the output "
                    f"would hold {collision!r} twice; rename it in one "
                    f"of the inputs"
                )
            raise PlanError(
                "join inputs are not connected by the conditions; "
                "cross products are not supported"
            )
        return best

    def _simulate(self, compiled, conditions, order):
        steps = self._merge_walk(compiled, conditions, order)
        if steps is None:
            return None
        return self._assign_protocols(compiled, order, steps)

    def _assign_protocols(self, compiled, order, steps) -> _Candidate:
        protocols = (
            ("gather",) if self.strategy == "gather" else self.join_protocols
        )
        states = [(0.0, compiled[order[0]][1].profile, [])]
        for step in steps:
            right = compiled[step["new"]][1].profile
            rows = step["stats"].rows
            expanded = []
            for total, left, chosen in states:
                key = (left.tobytes(), right.tobytes(), rows)
                stages = self.stage_table.get(key)
                if stages is None:
                    (stages,) = self.model.join_stages(
                        left[None], right[None], [rows], protocols
                    )
                    self.stage_table[key] = stages
                for name, (cost, profile) in zip(protocols, stages):
                    expanded.append(
                        (total + cost, profile, chosen + [(name, cost, profile)])
                    )
            expanded.sort(key=lambda state: state[0])
            distinct: dict = {}
            for state in expanded:
                distinct.setdefault(state[1].tobytes(), state)
            states = list(distinct.values())[:PROTOCOL_BEAM]
        total, _, chosen = states[0]
        annotated = [
            {
                **step,
                "protocol": name,
                "cost": cost,
                "stats": RelationStats(
                    rows=step["stats"].rows,
                    distinct=step["stats"].distinct,
                    profile=profile,
                ),
            }
            for step, (name, cost, profile) in zip(steps, chosen)
        ]
        return _Candidate(order=tuple(order), steps=annotated, cost=total)


def reference_stages(query, tree, catalog, strategy: str) -> tuple:
    """The physical stages the per-order search compiles ``query`` to."""
    compiler = _PerOrderCompiler(tree, catalog, strategy)
    compiler.compile(query)
    return tuple(compiler.stages)
