"""Stage 1: the maximum concurrent throughput ``Z*`` (paper eqs. (1)-(5)).

The stage-1 problem is the fractional maximum-concurrent-flow program:
maximize ``Z`` such that every job can deliver ``Z`` times its demand
within its window without exceeding any link's wavelength count on any
slice.  Integrality is deliberately *not* imposed here — ``Z*`` only
feeds the stage-2 fairness floor and the overload classification:

* ``Z* < 1``  — the network is overloaded; job sizes must shrink (or end
  times stretch, Section II-C) for all deadlines to hold.
* ``Z* >= 1`` — every request fits; demands could even scale up by
  ``Z*``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lp.model import ProblemStructure
from ..lp.solver import (
    LinearProgram,
    LPSolution,
    SolveBudget,
    SolveResilience,
    solve_lp,
)
from ..obs import current

__all__ = ["Stage1Result", "build_stage1_lp", "solve_stage1"]

#: Networks with ``Z*`` at most this are "overloaded" in the paper's sense.
OVERLOAD_THRESHOLD = 1.0


@dataclass(frozen=True)
class Stage1Result:
    """Outcome of the stage-1 solve.

    Attributes
    ----------
    zstar:
        The maximum concurrent throughput ``Z*``.
    x:
        A fractional assignment achieving ``Z*`` (diagnostic; stage 2
        recomputes its own assignment).
    solution:
        The raw LP solution (variables are ``x`` columns plus ``Z``
        appended last).
    """

    zstar: float
    x: np.ndarray
    solution: LPSolution

    @property
    def overloaded(self) -> bool:
        """Paper's overload classification: ``Z* <= 1``."""
        return self.zstar <= OVERLOAD_THRESHOLD


def build_stage1_lp(structure: ProblemStructure) -> LinearProgram:
    """Assemble the stage-1 LP: ``max Z`` s.t. (2)-(5).

    Variables are the ``num_cols`` wavelength assignments followed by one
    extra column for ``Z``.  Constraint (2) becomes the equality block
    ``demand_matrix @ x - d_i * Z = 0``; constraint (3) is the capacity
    block with a zero column for ``Z``.  The stacked blocks come from
    :func:`repro.engine.assembly.stage1_blocks`, which caches them on
    the structure for repeat assemblies of the same instance.
    """
    from ..engine.assembly import stage1_blocks

    a_eq, b_eq, a_ub, b_ub = stage1_blocks(structure)
    objective = np.zeros(structure.num_cols + 1)
    objective[-1] = 1.0
    return LinearProgram(
        objective=objective,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        maximize=True,
    )


def solve_stage1(
    structure: ProblemStructure,
    resilience: SolveResilience | None = None,
    budget: SolveBudget | None = None,
) -> Stage1Result:
    """Solve the stage-1 MCF problem and return ``Z*``.

    The problem is always feasible (``x = 0, Z = 0``) and bounded
    (capacities are finite and every job's demand is positive), so this
    never raises for modelling reasons.  Assembly and solve are timed
    under a ``"stage1"`` telemetry span; ``resilience``
    (optional) enables :func:`~repro.lp.solver.solve_lp`'s bounded
    retry / backend-fallback chain; ``budget`` (optional) forwards a
    :class:`~repro.lp.solver.SolveBudget` deadline to the solve.
    """
    with current().span("stage1"):
        problem = build_stage1_lp(structure)
        solution = solve_lp(
            problem,
            label="stage1",
            resilience=resilience,
            budget=budget,
        )
    zstar = float(solution.x[-1])
    return Stage1Result(
        zstar=zstar, x=solution.x[:-1].copy(), solution=solution
    )
