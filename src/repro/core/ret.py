"""Relaxing End Times: SUB-RET and Algorithm 2 (paper Section II-C).

When the network is overloaded and users prefer *complete* transfers with
a small, predictable delay over strict deadlines, the RET problem finds
the smallest common factor ``(1 + b)`` by which end times must stretch so
every job can finish in full.

* **SUB-RET** (eqs. (14)-(16)) is a feasibility problem with the
  Quick-Finish objective ``min sum_j gamma(j) sum x_i(p, j)``,
  ``gamma(j) = j + 1``, which packs flow into early slices.
* **Algorithm 2** binary-searches the smallest ``b`` for which the LP
  relaxation of SUB-RET is feasible (``b_hat``), rounds with LPDAR, and
  keeps nudging ``b`` up by ``delta`` until the *integer* solution also
  completes every job.

LP feasibility is monotone in ``b`` (a larger ``b`` only enlarges
windows), which is what makes the binary search sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Hashable, Mapping, Sequence
from typing import Literal

import numpy as np

from ..engine.engine import ModelEngine
from ..errors import InfeasibleProblemError, ScheduleError, ValidationError
from ..lp.model import ProblemStructure
from ..lp.solver import (
    LinearProgram,
    LPSolution,
    SolveBudget,
    SolveResilience,
    solve_lp,
)
from ..obs import current
from ..network.graph import Network
from ..network.paths import Path
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet
from .lpdar import GreedyOrder, LpdarResult, lpdar
from .metrics import COMPLETION_TOL, average_end_time, fraction_finished

__all__ = [
    "quick_finish_gamma",
    "build_subret_lp",
    "solve_subret_lp",
    "RetResult",
    "RetMode",
    "solve_ret",
    "MAX_EXTRA_DELTA_STEPS",
]

#: How Algorithm 2 stretches job windows: ``"end_time"`` is the paper's
#: main formulation, ``end -> (1 + b) * end``; ``"interval"`` is the
#: Section II-C remark's alternative, ``end -> start + (1 + b) * (end - start)``.
RetMode = Literal["end_time", "interval"]

Node = Hashable

#: Number of extra whole-``delta`` steps allowed past ``b_max`` before
#: Algorithm 2 gives up (safety valve; never reached in practice).
MAX_EXTRA_DELTA_STEPS = 1

#: Stand-in for a bounds probe whose feasibility was certified by the
#: engine's carried-plan witness instead of solved.  Only ever compared
#: by identity; if the binary search finishes with the sentinel still
#: selected, the probe is lazily solved for real before rounding.
_WITNESS = object()


def quick_finish_gamma(slice_index: np.ndarray) -> np.ndarray:
    """The paper's Quick-Finish cost ``gamma(j) = j + 1``."""
    return np.asarray(slice_index, dtype=float) + 1.0


def build_subret_lp(
    structure: ProblemStructure,
    gamma: Callable[[np.ndarray], np.ndarray] = quick_finish_gamma,
) -> LinearProgram:
    """Assemble the LP relaxation of SUB-RET over ``structure``.

    ``structure`` must already encode the extended windows (build it from
    ``jobs.with_extended_ends(b)``).  ``gamma`` maps slice indices to
    costs; it must be positive so the objective stays bounded.
    """
    costs = gamma(structure.col_slice)
    if np.any(costs <= 0) or not np.all(np.isfinite(costs)):
        raise ValidationError("gamma must produce positive finite costs")
    from ..engine.assembly import capacity_floor_blocks

    # Completion floors: -delivered_i <= -d_i (constraint (15)).
    a_ub, b_ub = capacity_floor_blocks(structure, -structure.demands)
    return LinearProgram(objective=costs, a_ub=a_ub, b_ub=b_ub, maximize=False)


def solve_subret_lp(
    structure: ProblemStructure,
    gamma: Callable[[np.ndarray], np.ndarray] = quick_finish_gamma,
    resilience: SolveResilience | None = None,
    budget: SolveBudget | None = None,
) -> LPSolution:
    """Solve the SUB-RET LP relaxation; raises when infeasible."""
    return solve_lp(
        build_subret_lp(structure, gamma),
        label="subret",
        resilience=resilience,
        budget=budget,
    )


@dataclass(frozen=True)
class RetResult:
    """Outcome of Algorithm 2.

    Attributes
    ----------
    b_hat:
        Smallest ``b`` (to binary-search tolerance) at which the LP
        relaxation of SUB-RET is feasible (Algorithm 2, step 1).
    b_final:
        The extension actually returned: ``b_hat`` plus however many
        ``delta`` nudges the integer rounding needed (steps 3-5).
    structure:
        The problem structure at ``b_final`` (extended windows/grid).
    assignments:
        LP / LPD / LPDAR assignments at ``b_final``.
    delta_steps:
        Number of ``delta`` increments taken after ``b_hat``.
    mode:
        Window-stretch rule used (``"end_time"`` or ``"interval"``).
    """

    b_hat: float
    b_final: float
    structure: ProblemStructure
    assignments: LpdarResult
    delta_steps: int
    mode: str = "end_time"

    def fraction_finished(self, which: str = "lpdar") -> float:
        """Share of jobs completed under one of the three assignments."""
        return fraction_finished(self.structure, self._select(which))

    def average_end_time(self, which: str = "lpdar") -> float:
        """Average completion time (slice counts) of finished jobs."""
        return average_end_time(self.structure, self._select(which))

    def _select(self, which: str) -> np.ndarray:
        try:
            return getattr(self.assignments, f"x_{which}")
        except AttributeError:
            raise ValidationError(
                f"unknown assignment {which!r}; pick lp, lpd or lpdar"
            ) from None

    def verify(self, which: str = "lpdar", require_complete: bool = True):
        """Check this RET solution against every paper invariant.

        RET's contract (constraint (15)) is that every job completes
        within the extended windows, so the demand check defaults on;
        pass ``require_complete=False`` for intermediate solutions.
        Returns the :class:`~repro.verify.VerificationReport`.
        """
        from ..verify.checker import verify_schedule

        return verify_schedule(
            None, self, which=which, require_complete=require_complete
        )


def solve_ret(
    network: Network,
    jobs: JobSet,
    slice_length: float = 1.0,
    k_paths: int = 4,
    b_max: float = 10.0,
    delta: float = 0.1,
    search_tol: float = 1e-3,
    gamma: Callable[[np.ndarray], np.ndarray] = quick_finish_gamma,
    order: GreedyOrder = "paper",
    cap_at_target: bool = True,
    rng: np.random.Generator | None = None,
    path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None = None,
    mode: RetMode = "end_time",
    capacity_profile=None,
    resilience: SolveResilience | None = None,
    budget: SolveBudget | None = None,
    engine: "ModelEngine | None" = None,
    warm_start: bool = True,
) -> RetResult:
    """Algorithm 2: find the smallest end-time extension completing all jobs.

    Parameters
    ----------
    network, jobs:
        The instance.  Windows are stretched as ``end -> (1 + b) * end``.
    slice_length:
        Slice length of the (uniform) scheduling grid, which always
        starts at ``t = 0`` and is regenerated to cover each candidate
        extension.
    k_paths:
        Allowed paths per job.
    b_max:
        Upper end of the binary-search interval.  If SUB-RET is still
        LP-infeasible at ``b_max``, a :class:`ScheduleError` is raised.
    delta:
        Step-4 increment applied when the rounded (integer) solution
        fails to complete every job (paper default 0.1).
    search_tol:
        Binary-search resolution on ``b``.
    gamma:
        Quick-Finish cost function (default ``j + 1``).
    order, cap_at_target, rng:
        Greedy-adjustment variant, forwarded to
        :func:`repro.core.lpdar.greedy_adjust`.  ``cap_at_target``
        defaults to True here: granting a job more than its remaining
        demand cannot help completion, and leaving the surplus to needier
        jobs strictly helps.  Pass False for the paper-literal pass.
    path_sets:
        Optional precomputed path sets (reused across all iterations).
    mode:
        ``"end_time"`` (paper main text): stretch each end to
        ``(1 + b) * E_i``.  ``"interval"`` (Section II-C remark):
        stretch each window length to ``(1 + b) * (E_i - S_i)``, keeping
        the start fixed.  Feasibility is monotone in ``b`` either way.
    capacity_profile:
        Optional :class:`~repro.network.capacity.CapacityProfile` in
        absolute time (constraint (3)'s ``C_e(j)``).  Re-based onto each
        candidate extension's grid; slices past the profile's horizon
        use installed capacity.  Its slice length must match
        ``slice_length``.
    resilience:
        Optional :class:`~repro.lp.solver.SolveResilience` forwarded to
        every SUB-RET probe's LP solve (retry / fallback chain).
    budget:
        Optional :class:`~repro.lp.solver.SolveBudget` covering the
        *whole* Algorithm 2 run: checked between binary-search probes
        (``"ret_probe"``) and forwarded to every probe's LP solve.
        Unlike :meth:`Scheduler.schedule` there is no degradation rung
        for RET — a partial extension search has no meaningful fallback
        — so exhaustion raises
        :class:`~repro.errors.BudgetExceededError` and the caller (e.g.
        the simulator's overload handler) decides what to do.
    engine:
        Optional shared :class:`~repro.engine.ModelEngine` (must be
        bound to ``network`` with matching ``k_paths``).  The simulator
        passes its own so probe layouts and solutions carry over across
        epochs; by default each call builds a private engine.
    warm_start:
        When no ``engine`` is supplied, whether the private engine may
        reuse layouts and memoize probe solves (results are identical
        either way; ``False`` — the CLI's ``--no-warm-start`` — forces
        the fully from-scratch audit path).  Ignored when ``engine`` is
        given.

    Raises
    ------
    ScheduleError
        SUB-RET is LP-infeasible even at ``b_max``, or the ``delta`` loop
        runs past ``b_max`` without completing every job.
    BudgetExceededError
        ``budget`` ran out between or during probes.

    The whole call is timed under a ``"ret"`` telemetry span, and every
    candidate ``b`` the algorithm probes leaves a ``ret_probe`` record —
    the binary-search trace — plus a final ``ret_result`` record.
    """
    if b_max <= 0:
        raise ValidationError(f"b_max must be positive, got {b_max}")
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    if search_tol <= 0:
        raise ValidationError(f"search_tol must be positive, got {search_tol}")
    if mode not in ("end_time", "interval"):
        raise ValidationError(f"unknown RET mode {mode!r}")
    telemetry = current()
    if engine is None:
        engine = ModelEngine(network, k_paths, warm_start=warm_start)
    else:
        if engine.network is not network:
            raise ValidationError(
                "engine is bound to a different network than solve_ret's"
            )
        if engine.k_paths != k_paths:
            raise ValidationError(
                f"engine resolves k_paths={engine.k_paths} but solve_ret "
                f"was asked for k_paths={k_paths}"
            )
    if path_sets is None:
        path_sets = engine.topology.path_sets(jobs.od_pairs())
    if budget is not None:
        budget.ensure_started()
    # The default Quick-Finish objective is part of the LP family's
    # identity; a caller-supplied gamma is not visible to the memo key,
    # so those probes always solve from scratch.
    cacheable_gamma = gamma is quick_finish_gamma

    def attempt(
        b: float, phase: str
    ) -> tuple[ProblemStructure, LPSolution] | None:
        """Structure + LP solution at extension ``b``, or None if infeasible.

        ``phase`` labels the probe's role in the algorithm (``"bounds"``
        for the b_max / 0 endpoint checks, ``"search"`` for bisection,
        ``"delta"`` for integer-completion nudges) so the telemetry
        trace distinguishes them.
        """
        if budget is not None:
            budget.check("ret_probe")
        structure = engine.extend_windows(
            jobs,
            b,
            mode=mode,
            slice_length=slice_length,
            path_sets=path_sets,
            capacity_profile=capacity_profile,
        )
        telemetry.count("ret_probes")
        try:
            solution = engine.cached_solve(
                structure,
                "subret",
                lambda: build_subret_lp(structure, gamma),
                cache=cacheable_gamma,
                resilience=resilience,
                budget=budget,
                label="subret",
            )
        except InfeasibleProblemError:
            telemetry.record(
                "ret_probe",
                phase=phase,
                b=b,
                feasible=False,
                num_cols=structure.num_cols,
            )
            return None
        telemetry.record(
            "ret_probe",
            phase=phase,
            b=b,
            feasible=True,
            num_cols=structure.num_cols,
            iterations=solution.iterations,
        )
        return structure, solution

    def witness_certified() -> bool:
        """Can the engine's carried plan vouch for feasibility at b_max?

        Only applies without a capacity profile: the witness certifies
        against installed capacities, which is exactly what the SUB-RET
        LP uses when no profile is attached (fault epochs constrain RET
        through banned ``path_sets``, which certification re-checks per
        grant).  A certificate is an explicit feasible point, so the
        probe's *outcome* is known; its LP solution is only computed
        later if the rounding step actually needs it.
        """
        if capacity_profile is not None or not engine.has_carried_plan:
            return False
        extended = (
            jobs.with_extended_intervals(b_max)
            if mode == "interval"
            else jobs.with_extended_ends(b_max)
        )
        grid = TimeGrid.covering(extended.max_end(), slice_length)
        return engine.certify_feasible(extended, grid, path_sets)

    with telemetry.span("ret"):
        # Step 1: binary search for the smallest LP-feasible b.  The
        # b_max endpoint exists only to fail fast on truly uncarriable
        # demand — its solution is discarded whenever any smaller b is
        # feasible — so a carried-plan certificate stands in for the
        # whole build-and-solve.
        upper_attempt: tuple[ProblemStructure, LPSolution] | object | None
        if witness_certified():
            if budget is not None:
                budget.check("ret_probe")
            upper_attempt = _WITNESS
            telemetry.count("ret_witness_skips")
            telemetry.record(
                "ret_probe",
                phase="bounds",
                b=b_max,
                feasible=True,
                num_cols=0,
                iterations=0,
                witness=True,
            )
        else:
            upper_attempt = attempt(b_max, "bounds")
            if upper_attempt is None:
                raise ScheduleError(
                    f"SUB-RET is infeasible even with end times extended by "
                    f"(1 + {b_max}); the network cannot carry this demand"
                )
        zero_attempt = attempt(0.0, "bounds")
        if zero_attempt is not None:
            b_hat = 0.0
            best = zero_attempt
        else:
            lo, hi = 0.0, b_max
            best = upper_attempt
            while hi - lo > search_tol:
                mid = 0.5 * (lo + hi)
                result = attempt(mid, "search")
                if result is None:
                    lo = mid
                else:
                    hi = mid
                    best = result
            b_hat = hi

        # Steps 2-5: round with LPDAR; extend by delta until all jobs finish.
        b = b_hat
        candidate: tuple[ProblemStructure, LPSolution] | object | None = best
        delta_steps = 0
        while True:
            if candidate is _WITNESS:
                # The witness certified this b feasible but skipped its
                # solve; the candidate became the rounding point after
                # all, so solve the identical LP now (same structure,
                # same optimum — the certificate only deferred it).
                candidate = attempt(b, "bounds")
            if candidate is not None:
                structure, lp_solution = candidate
                rounded = lpdar(
                    structure,
                    lp_solution.x,
                    order=order,
                    cap_at_target=cap_at_target,
                    rng=rng,
                )
                delivered = structure.delivered(rounded.x_lpdar)
                if np.all(delivered >= structure.demands - COMPLETION_TOL):
                    telemetry.record(
                        "ret_result",
                        b_hat=b_hat,
                        b_final=b,
                        delta_steps=delta_steps,
                        mode=mode,
                    )
                    return RetResult(
                        b_hat=b_hat,
                        b_final=b,
                        structure=structure,
                        assignments=rounded,
                        delta_steps=delta_steps,
                        mode=mode,
                    )
            b += delta
            delta_steps += 1
            if b > b_max + MAX_EXTRA_DELTA_STEPS * delta:
                # Raising delta would only coarsen the steps, not enlarge
                # the search range; only a larger b_max can help here.
                raise ScheduleError(
                    f"LPDAR could not complete all jobs even at "
                    f"b = {b - delta:.3f} (b_max = {b_max}); raise b_max"
                )
            # LP infeasibility above b_hat can only come from slice rounding
            # at the window edge; attempt() returning None just means another
            # delta step is needed.
            candidate = attempt(b, "delta")
