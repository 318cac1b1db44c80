"""Stage 2: weighted-throughput maximization with a fairness floor.

The stage-2 problem (paper eqs. (7)-(10)) maximizes the weighted
throughput ``sum_i w_i Z_i`` subject to the capacity and window
constraints and the fairness floor ``Z_i >= (1 - alpha) * Z*``, where
``Z*`` comes from stage 1.  With the paper's default size weights
(``w_i = D_i / sum D``) the objective reduces to total delivered volume,
normalized by total demand.

Per-job throughput ``Z_i`` (eq. (6)) is substituted out: the equality
(8) merely *defines* ``Z_i``, so the LP is formulated over the wavelength
variables alone with ``Z_i = delivered_i / d_i``.

The true stage-2 problem is an integer program; :func:`build_stage2_lp`
builds its LP relaxation (drop (10)), which is what LPDAR rounds.  The
relaxation is always feasible: the stage-1 optimum scaled to ``Z*``
satisfies the fairness floor with slack ``alpha * Z*``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..lp.model import ProblemStructure
from ..lp.solver import (
    LinearProgram,
    LPSolution,
    SolveBudget,
    SolveResilience,
    solve_lp,
)
from ..obs import current

__all__ = ["Stage2Result", "build_stage2_lp", "solve_stage2_lp", "objective_weights"]


def objective_weights(
    structure: ProblemStructure, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per-column objective coefficients for ``sum_i w_i Z_i``.

    ``weights`` are per-job; ``None`` selects the paper's size weights
    ``w_i = D_i / sum D`` (favouring large jobs, Section II-B.2).  Since
    ``Z_i = sum_c x_c LEN(c) / d_i``, the column coefficient is
    ``w_i * LEN(c) / d_i``.
    """
    num_jobs = len(structure.jobs)
    if weights is None:
        weights = structure.demands / structure.demands.sum()
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (num_jobs,):
            raise ValidationError(
                f"weights must have shape ({num_jobs},), got {weights.shape}"
            )
        if np.any(weights <= 0):
            raise ValidationError("all job weights must be positive")
    per_job = weights / structure.demands
    return per_job[structure.col_job] * structure.col_len


def build_stage2_lp(
    structure: ProblemStructure,
    zstar: float,
    alpha: float = 0.1,
    weights: np.ndarray | None = None,
) -> LinearProgram:
    """Assemble the LP relaxation of the stage-2 problem.

    Parameters
    ----------
    structure:
        Shared problem structure.
    zstar:
        Stage-1 maximum concurrent throughput.
    alpha:
        Fairness slack in ``[0, 1]``; each job is guaranteed
        ``Z_i >= (1 - alpha) * Z*`` (eq. (9)).
    weights:
        Optional per-job weights replacing the paper's size weighting
        (e.g. inverse sizes to favour small jobs, or user-specified
        importance levels).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
    if zstar < 0:
        raise ValidationError(f"zstar must be >= 0, got {zstar}")

    from ..engine.assembly import capacity_floor_blocks

    # Fairness rows: -delivered_i <= -(1 - alpha) * Z* * d_i.  The
    # stacked matrix is cached on the structure, so alpha escalations
    # re-assemble only the right-hand side.
    fairness_rhs = -(1.0 - alpha) * zstar * structure.demands
    a_ub, b_ub = capacity_floor_blocks(structure, fairness_rhs)
    return LinearProgram(
        objective=objective_weights(structure, weights),
        a_ub=a_ub,
        b_ub=b_ub,
        maximize=True,
    )


@dataclass(frozen=True)
class Stage2Result:
    """Outcome of a stage-2 LP solve.

    Attributes
    ----------
    x:
        Fractional optimal assignment (input to LPDAR).
    objective:
        Optimal weighted throughput of the relaxation (an upper bound on
        the integer optimum).
    zstar, alpha:
        The fairness parameters the problem was built with.
    solution:
        Raw LP solution.
    """

    x: np.ndarray
    objective: float
    zstar: float
    alpha: float
    solution: LPSolution

    def fairness_floor(self) -> float:
        """The per-job throughput floor ``(1 - alpha) * Z*``."""
        return (1.0 - self.alpha) * self.zstar


def solve_stage2_lp(
    structure: ProblemStructure,
    zstar: float,
    alpha: float = 0.1,
    weights: np.ndarray | None = None,
    resilience: SolveResilience | None = None,
    budget: SolveBudget | None = None,
) -> Stage2Result:
    """Solve the stage-2 LP relaxation.

    Assembly and solve are timed under a ``"stage2"`` telemetry span;
    ``resilience`` (optional) enables
    :func:`~repro.lp.solver.solve_lp`'s retry / fallback chain;
    ``budget`` (optional) forwards a
    :class:`~repro.lp.solver.SolveBudget` deadline to the solve.
    """
    with current().span("stage2"):
        problem = build_stage2_lp(structure, zstar, alpha, weights)
        solution = solve_lp(
            problem,
            label="stage2",
            resilience=resilience,
            budget=budget,
        )
    return Stage2Result(
        x=solution.x,
        objective=solution.objective,
        zstar=zstar,
        alpha=alpha,
        solution=solution,
    )
