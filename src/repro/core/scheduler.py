"""End-to-end scheduler facade: stage 1 -> stage 2 -> LPDAR.

:class:`Scheduler` packages the paper's maximizing-throughput algorithm
(Section II-B) behind one call: compute ``Z*``, solve the stage-2 LP
relaxation, round with LPDAR, and — per Remark 1 — escalate ``alpha``
when the integer solution misses the fairness floor.  The result object
exposes everything the controller needs to configure the network: per
(job, path, slice) wavelength counts, per-job guaranteed sizes for
overload re-negotiation (Remark 2), and the evaluation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Iterator, Mapping, Sequence

import numpy as np

from ..engine.engine import ModelEngine, bind_engine
from ..errors import BudgetExceededError, ScheduleError, ValidationError
from ..lp.model import ProblemStructure
from ..lp.solver import LPSolution, SolveBudget
from ..network.graph import Network
from ..obs import current
from ..network.paths import Path
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet
from .lpdar import GreedyOrder, LpdarResult, discretize, greedy_adjust, lpdar
from .metrics import fraction_finished
from .stage2 import Stage2Result, solve_stage2_lp
from .throughput import Stage1Result, solve_stage1

__all__ = ["WavelengthGrant", "ScheduleResult", "Scheduler"]

Node = Hashable


@dataclass(frozen=True)
class WavelengthGrant:
    """One row of the final schedule: wavelengths on a path in a slice.

    Attributes
    ----------
    job_id:
        The granted job.
    path:
        Node sequence of the granted path.
    slice_index:
        Time slice of the grant.
    interval:
        The slice's ``(start, end)`` times.
    wavelengths:
        Integer number of wavelengths reserved.
    """

    job_id: int | str
    path: tuple[Node, ...]
    slice_index: int
    interval: tuple[float, float]
    wavelengths: int


@dataclass(frozen=True)
class ScheduleResult:
    """Everything produced by one scheduling pass.

    Attributes
    ----------
    structure:
        The problem structure (network, jobs, grid, paths).
    stage1:
        Stage-1 outcome, including ``Z*``.
    stage2:
        Stage-2 LP outcome at the final ``alpha``.
    assignments:
        LP / LPD / LPDAR assignment vectors.
    alpha:
        The fairness parameter actually used (after any escalation).
    alpha_escalations:
        How many times ``alpha`` was raised per Remark 1.
    degraded:
        ``None`` for a full solve; otherwise the degradation-ladder rung
        that produced this schedule after a
        :class:`~repro.errors.BudgetExceededError` — ``"lpd_greedy"``
        (LPD floor of the last fractional solution plus the Algorithm 1
        greedy residual pass) or ``"greedy_baseline"`` (greedy from an
        empty assignment; no LP solved at all).  Degraded schedules are
        always capacity-feasible and integer, but carry no optimality or
        fairness guarantee.
    degraded_reason:
        Human-readable cause of the degradation (the budget error
        message), or ``None``.
    """

    structure: ProblemStructure
    stage1: Stage1Result
    stage2: Stage2Result
    assignments: LpdarResult
    alpha: float
    alpha_escalations: int
    degraded: str | None = None
    degraded_reason: str | None = None

    # ------------------------------------------------------------------
    # Headline quantities
    # ------------------------------------------------------------------
    @property
    def zstar(self) -> float:
        """Maximum concurrent throughput from stage 1."""
        return self.stage1.zstar

    @property
    def overloaded(self) -> bool:
        """Paper's overload classification: ``Z* <= 1``."""
        return self.stage1.overloaded

    @property
    def x(self) -> np.ndarray:
        """The deployable (integer, LPDAR) assignment."""
        return self.assignments.x_lpdar

    def assignment(self, which: str = "lpdar") -> np.ndarray:
        """One of the three assignment vectors: ``lp``, ``lpd``, ``lpdar``."""
        try:
            return getattr(self.assignments, f"x_{which}")
        except AttributeError:
            raise ValidationError(
                f"unknown assignment {which!r}; pick lp, lpd or lpdar"
            ) from None

    def weighted_throughput(self, which: str = "lpdar") -> float:
        """Paper objective (7) under the chosen assignment."""
        return self.structure.weighted_throughput(self.assignment(which))

    def normalized_throughput(self, which: str = "lpdar") -> float:
        """Throughput relative to the LP upper bound (Figs. 1-2 metric)."""
        lp = self.weighted_throughput("lp")
        if lp <= 0:
            raise ValidationError("LP throughput is zero; nothing scheduled")
        return self.weighted_throughput(which) / lp

    def job_throughputs(self, which: str = "lpdar") -> np.ndarray:
        """Per-job ``Z_i`` (eq. (6)) under the chosen assignment."""
        return self.structure.throughputs(self.assignment(which))

    def guaranteed_sizes(self, which: str = "lpdar") -> np.ndarray:
        """Sizes the network can guarantee by the deadlines (Remark 2).

        For a job with ``Z_i < 1`` this is the reduced demand
        ``Z_i * D_i`` the user would be asked to accept; jobs with
        ``Z_i >= 1`` keep their full size.
        """
        z = self.job_throughputs(which)
        return np.minimum(z, 1.0) * self.structure.jobs.sizes()

    def fraction_finished(self, which: str = "lpdar") -> float:
        """Share of jobs whose *original* demand is fully delivered."""
        return fraction_finished(self.structure, self.assignment(which))

    def meets_fairness(self, which: str = "lpdar", tol: float = 1e-9) -> bool:
        """Whether every job meets the ``(1 - alpha) Z*`` floor."""
        floor = (1.0 - self.alpha) * self.zstar
        return bool(np.all(self.job_throughputs(which) >= floor - tol))

    def verify(self, which: str = "lpdar"):
        """Check this schedule against every paper invariant.

        Returns the :class:`~repro.verify.VerificationReport` from the
        shared checker (:func:`repro.verify.verify_schedule`); use its
        ``ok`` / ``explain()`` / ``raise_if_failed()`` to act on it.
        """
        from ..verify.checker import verify_schedule

        return verify_schedule(None, self, which=which)

    # ------------------------------------------------------------------
    # Deployment view
    # ------------------------------------------------------------------
    def grants(self, which: str = "lpdar") -> Iterator[WavelengthGrant]:
        """Iterate nonzero wavelength grants, slice-major.

        This is the concrete configuration the network controller would
        push to the switches: for each time slice, which paths of which
        jobs hold how many wavelengths.
        """
        x = self.assignment(which)
        structure = self.structure
        grid = structure.grid
        order = np.lexsort(
            (structure.col_path, structure.col_job, structure.col_slice)
        )
        for c in order:
            count = x[c]
            if count <= 0:
                continue
            i = int(structure.col_job[c])
            j = int(structure.col_slice[c])
            path = structure.paths[i][int(structure.col_path[c])]
            yield WavelengthGrant(
                job_id=structure.jobs[i].id,
                path=path.nodes,
                slice_index=j,
                interval=(grid.slice_start(j), grid.slice_end(j)),
                wavelengths=int(round(count)),
            )


class Scheduler:
    """The maximizing-throughput scheduling algorithm, end to end.

    Parameters
    ----------
    network:
        The wavelength-switched network.
    k_paths:
        Allowed paths per job (paper: 4-8).
    alpha:
        Initial fairness slack for constraint (9).
    alpha_step, alpha_max:
        Remark-1 escalation: when the LPDAR solution violates the
        fairness floor, ``alpha`` is raised by ``alpha_step`` (relaxing
        the floor) and stage 2 re-solved, up to ``alpha_max``.  Set
        ``alpha_step = 0`` to disable escalation.
    slice_length:
        Slice length used when no grid is passed to :meth:`schedule`.
    greedy_order, cap_at_target:
        Algorithm 1 variant knobs (see :func:`repro.core.lpdar.greedy_adjust`).
    weights:
        Optional per-job stage-2 weights (default: the paper's size
        weighting).
    engine:
        Optional shared :class:`~repro.engine.ModelEngine` (must be
        bound to ``network`` with ``k_paths`` matching).  Callers that
        schedule repeatedly — the simulator above all — pass one engine
        so path resolution, structure layouts and per-job fragments
        carry over between calls; by default the scheduler builds its
        own.  The engine's ``resilience`` is the retry / fallback policy
        of every stage-1 and stage-2 solve; the scheduler keeps no copy.
    verify_solutions:
        Treat solver backends as untrusted: every stage-1/stage-2
        solution is checked by :func:`repro.verify.verify_schedule`
        (non-negativity and capacity of the LP point) *before* rounding,
        so a backend returning a subtly wrong solution — e.g. one
        wrapped by :class:`repro.chaos.FaultyBackend` — raises
        :class:`~repro.errors.ScheduleError` instead of flowing into a
        committed schedule.  Off by default: the bundled backends clamp
        their output into bounds, and the check costs two sparse
        mat-vecs per solve.

    Each :meth:`schedule` call reports structure assembly, the
    stage-1/stage-2 solves and the LPDAR rounding to the
    :func:`~repro.obs.current` collector under a ``"schedule"`` span.

    Stage 1 goes through the engine's solve memo, so a stage-1 LP an
    admission probe already solved is replayed verbatim.  Stage 2
    always solves with :func:`~repro.lp.solver.solve_lp`'s default HiGHS
    backend, under the engine's ``resilience``, and off the memo: its LP
    changes with every alpha, so the memo could not replay it.  What
    the alphas share — the rows, the objective and their HiGHS arrays —
    is cached on the structure, so each escalation assembles only the
    new fairness floors (:mod:`repro.engine.assembly`).
    """

    def __init__(
        self,
        network: Network,
        k_paths: int = 4,
        alpha: float = 0.1,
        alpha_step: float = 0.1,
        alpha_max: float = 0.5,
        slice_length: float = 1.0,
        greedy_order: GreedyOrder = "paper",
        cap_at_target: bool = False,
        rng: np.random.Generator | None = None,
        engine: "ModelEngine | None" = None,
        verify_solutions: bool = False,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
        if alpha_step < 0 or alpha_max < alpha or alpha_max > 1.0:
            raise ValidationError(
                f"need 0 <= alpha_step and alpha <= alpha_max <= 1, got "
                f"step={alpha_step}, max={alpha_max}"
            )
        if slice_length <= 0:
            raise ValidationError(f"slice_length must be > 0, got {slice_length}")
        self.network = network
        self.k_paths = k_paths
        self.alpha = alpha
        self.alpha_step = alpha_step
        self.alpha_max = alpha_max
        self.slice_length = slice_length
        self.greedy_order = greedy_order
        self.cap_at_target = cap_at_target
        self.rng = rng
        self.verify_solutions = verify_solutions
        self.engine = bind_engine(network, k_paths, engine, "the scheduler")

    def build_structure(
        self,
        jobs: JobSet,
        grid: TimeGrid | None = None,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None = None,
        capacity_profile=None,
    ) -> ProblemStructure:
        """Assemble the shared problem structure for ``jobs``.

        ``capacity_profile`` (a
        :class:`~repro.network.capacity.CapacityProfile`) makes the
        schedule honour time-varying ``C_e(j)``; its grid must match the
        scheduling grid, so pass an explicit ``grid`` alongside it.
        Edges the profile zeroes out for the *entire* horizon (full
        outages) are excluded from path computation, so jobs route
        around dead links instead of holding useless zero-capacity
        grants on them.
        """
        banned = frozenset()
        if path_sets is None and capacity_profile is not None:
            dead = np.flatnonzero(capacity_profile.matrix.max(axis=1) == 0)
            banned = frozenset(int(e) for e in dead)
        return self.engine.structure(
            jobs,
            grid,
            slice_length=self.slice_length,
            path_sets=path_sets,
            capacity_profile=capacity_profile,
            banned_edges=banned,
        )

    def schedule(
        self,
        jobs: JobSet,
        grid: TimeGrid | None = None,
        weights: np.ndarray | None = None,
        capacity_profile=None,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None = None,
        budget: SolveBudget | None = None,
    ) -> ScheduleResult:
        """Run stage 1, stage 2 and LPDAR; escalate ``alpha`` if needed.

        When ``weights`` is None and any job carries an explicit
        ``weight``, those are used (unweighted jobs default to the
        paper's size weighting, ``w_i = D_i``, before normalization).
        ``path_sets`` optionally overrides path computation (e.g. the
        online controller rebuilding paths around failed links).

        With a ``budget`` (a :class:`~repro.lp.solver.SolveBudget`), a
        :class:`~repro.errors.BudgetExceededError` from any LP solve is
        absorbed by the degradation ladder (full pipeline → LPD floor +
        greedy residual → greedy baseline) instead of propagating: the
        pass falls back to the cheapest rung that still yields a
        feasible integer schedule, marked via ``result.degraded``.
        """
        telemetry = current()
        if budget is not None:
            budget.ensure_started()
        with telemetry.span("schedule"):
            structure = self.build_structure(
                jobs, grid, path_sets=path_sets, capacity_profile=capacity_profile
            )
            if weights is None and any(j.weight is not None for j in jobs):
                weights = np.array(
                    [j.weight if j.weight is not None else j.size for j in jobs]
                )
            try:
                # Through the engine memo: a stage-1 LP an admission
                # probe already solved this tick is replayed verbatim.
                stage1 = solve_stage1(
                    structure, budget=budget, engine=self.engine
                )
            except BudgetExceededError as exc:
                # Rung 3: nothing solved; greedy from an empty assignment.
                return self._degraded(
                    structure, None, "greedy_baseline", str(exc), self.alpha, 0
                )
            if self.verify_solutions:
                self._verify_solution(structure, stage1.x, "stage1")

            alpha = self.alpha
            escalations = 0
            result: ScheduleResult | None = None
            while True:
                try:
                    stage2 = solve_stage2_lp(
                        structure,
                        stage1.zstar,
                        alpha,
                        weights,
                        resilience=self.engine.resilience,
                        budget=budget,
                    )
                except BudgetExceededError as exc:
                    if result is not None:
                        # Budget died mid alpha-escalation; the previous
                        # pass is a complete, valid schedule (it merely
                        # misses the fairness floor), so commit it.
                        telemetry.count("budget_stopped_escalations")
                        return result
                    # Rung 2: stage 1 solved but stage 2 did not; round
                    # the stage-1 fractional assignment instead.
                    return self._degraded(
                        structure, stage1, "lpd_greedy", str(exc), alpha, escalations
                    )
                if self.verify_solutions:
                    self._verify_solution(structure, stage2.x, "stage2")
                rounded = lpdar(
                    structure,
                    stage2.x,
                    order=self.greedy_order,
                    cap_at_target=self.cap_at_target,
                    rng=self.rng,
                )
                result = ScheduleResult(
                    structure=structure,
                    stage1=stage1,
                    stage2=stage2,
                    assignments=rounded,
                    alpha=alpha,
                    alpha_escalations=escalations,
                )
                if (
                    self.alpha_step <= 0
                    or alpha >= self.alpha_max
                    or result.meets_fairness("lpdar")
                ):
                    telemetry.count("schedule_passes")
                    telemetry.count("alpha_escalations", escalations)
                    return result
                if budget is not None and budget.expired():
                    telemetry.count("budget_stopped_escalations")
                    return result
                alpha = min(alpha + self.alpha_step, self.alpha_max)
                escalations += 1

    def _verify_solution(
        self, structure: ProblemStructure, x: np.ndarray, stage: str
    ) -> None:
        """Reject an untrusted solver solution before it is rounded.

        Runs the shared checker on the fractional LP point (``which="lp"``
        semantics: non-negativity and capacity).  Raising here happens
        *before* any :class:`ScheduleResult` exists, so nothing downstream
        — the simulator's journal commit, the service's batch responses —
        can ever act on the corrupt solution.
        """
        from ..verify.checker import verify_schedule

        report = verify_schedule(
            structure, np.asarray(x, dtype=float), which="lp"
        )
        if not report.ok:
            current().count("solver_solutions_rejected")
            raise ScheduleError(
                f"{stage} solver returned an invalid solution, rejected by "
                f"verify_schedule before commit:\n{report.explain()}"
            )

    def _degraded(
        self,
        structure: ProblemStructure,
        stage1: Stage1Result | None,
        level: str,
        reason: str,
        alpha: float,
        escalations: int,
    ) -> ScheduleResult:
        """Build a budget-degraded :class:`ScheduleResult`.

        ``"lpd_greedy"`` rounds the stage-1 fractional assignment (LPD
        truncation + Algorithm 1 residual pass); ``"greedy_baseline"``
        runs Algorithm 1 from an all-zero assignment.  Both are integer
        and capacity-feasible by construction, so the epoch always has
        something checker-clean to commit.  Placeholder stage-1/stage-2
        results (``zstar = 0``, zero iterations) stand in for the solves
        that never ran.
        """
        n = structure.num_cols
        frac = (
            stage1.x if (level == "lpd_greedy" and stage1 is not None)
            else np.zeros(n)
        )
        x_lpd = discretize(frac)
        x_lpdar = greedy_adjust(
            structure,
            x_lpd,
            order=self.greedy_order,
            cap_at_target=self.cap_at_target,
            rng=self.rng,
        )
        rounded = LpdarResult(
            x_lp=np.asarray(frac, dtype=float), x_lpd=x_lpd, x_lpdar=x_lpdar
        )
        if stage1 is None:
            stage1 = Stage1Result(
                zstar=0.0,
                x=np.zeros(n),
                solution=LPSolution(x=np.zeros(n + 1), objective=0.0),
            )
        frac_obj = structure.weighted_throughput(rounded.x_lp)
        stage2 = Stage2Result(
            x=rounded.x_lp,
            objective=frac_obj,
            zstar=stage1.zstar,
            alpha=alpha,
            solution=LPSolution(x=rounded.x_lp, objective=frac_obj),
        )
        telemetry = current()
        telemetry.count("degraded_solves")
        telemetry.count(f"degraded_solves_{level}")
        telemetry.record("degraded_solve", level=level, reason=reason)
        telemetry.count("schedule_passes")
        return ScheduleResult(
            structure=structure,
            stage1=stage1,
            stage2=stage2,
            assignments=rounded,
            alpha=alpha,
            alpha_escalations=escalations,
            degraded=level,
            degraded_reason=reason,
        )
