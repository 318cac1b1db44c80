"""Thin, typed wrappers around the HiGHS LP solver bundled with SciPy.

The paper used CPLEX; we substitute HiGHS's dual simplex (see DESIGN.md),
driven directly through SciPy's pybind binding
``scipy.optimize._highspy._core`` rather than ``scipy.optimize.linprog``.
The binding is the same HiGHS build ``linprog(method="highs")`` runs, so
the answers are bitwise identical; skipping linprog's input cleaning,
per-call option validation and result packaging roughly halves the
wall time of a solve of the benchmark's ~200-row LPs.  :func:`solve_highs`
keeps what linprog did that the repository relies on: its status codes,
its post-solve feasibility check, its dual signs and its iteration
count.  Everything downstream talks to these wrappers, so swapping the
backend means editing this module only.

Reused instances
----------------

Each thread loads its LPs into one HiGHS instance of its own, cleared
before every load, so no basis carries over and each solve still starts
cold from presolve: every answer is the one a fresh instance gives,
without paying for a new instance per solve.

HiGHS-ready arrays
------------------

What :func:`solve_highs` hands HiGHS besides the ``<=`` right-hand side
is made once and reused: a lone constraint block goes to HiGHS as its
own CSR arrays (:func:`_stacked_rows`), so a block the structure caches
is loaded uncopied, and the cost, column bounds and row lower bounds
are kept in the problem's ``_highs_form`` dict, which the assembly
layer shares among the LPs of one family over one structure
(:mod:`repro.engine.assembly`).  The arrays are the ones a fresh
assembly gives, byte for byte; no basis or option carries over.

Resilient solve chain
---------------------

Long online-controller runs cannot afford to die on one transient
numerical failure.  Passing a :class:`SolveResilience` to
:func:`solve_lp` turns the single-shot solve into a bounded chain:

1. solve on the requested backend;
2. on a non-modelling :class:`~repro.errors.SolverError`, retry up to
   ``max_retries`` times, each time nudging the right-hand side by a
   relative ``perturbation`` (a standard numerical-rescue trick —
   relaxing every row by ``~1e-9`` moves the optimum by noise but often
   shakes the factorization out of a degenerate corner);
3. if the primary backend never succeeds and the instance is small
   enough (``fallback_max_vars``), fall back to ``fallback_backend``
   (by default the pure-Python reference simplex);
4. if everything fails, raise a :class:`~repro.errors.SolverError`
   carrying the full chain context: final backend, status, retry count
   and every backend tried.

Modelling outcomes (:class:`~repro.errors.InfeasibleProblemError`,
:class:`~repro.errors.UnboundedProblemError`) are never retried — they
are answers, not failures.  ``resilience=None`` (the default) keeps the
exact single-shot behaviour.

Deadline-aware solving
----------------------

An online controller must commit *something* before its epoch boundary,
so every solve entry point also accepts a :class:`SolveBudget` — a
cooperative wall-clock watchdog.  The budget is checked before each
backend attempt (and forwarded to HiGHS as its native ``time_limit``),
and exhaustion raises :class:`~repro.errors.BudgetExceededError`, which
the resilience chain never retries (wall time spent on one backend is
gone for all of them).  The graceful-degradation ladder that turns a
budget overrun into a cheaper-but-feasible schedule lives one layer up,
in :class:`~repro.core.scheduler.Scheduler`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # SciPy < 1.15 kept HiGHS behind a Cython module
    raise ImportError(
        "repro needs scipy>=1.15, whose HiGHS binding is "
        "scipy.optimize._highspy._core"
    ) from exc

from ..errors import (
    BudgetExceededError,
    InfeasibleProblemError,
    SolverError,
    UnboundedProblemError,
    ValidationError,
)
from ..obs import current

__all__ = [
    "LinearProgram",
    "LPSolution",
    "SolveResilience",
    "SolveBudget",
    "DEFAULT_RESILIENCE",
    "solve_lp",
]


@dataclass
class LinearProgram:
    """A linear program in the standard SciPy form.

    ``maximize`` selects the sense of ``objective``; internally the
    problem is always handed to HiGHS as a minimization.

    Attributes
    ----------
    objective:
        Coefficient vector ``c``.
    a_ub, b_ub:
        Inequality block ``A_ub @ x <= b_ub`` (optional).
    a_eq, b_eq:
        Equality block ``A_eq @ x == b_eq`` (optional).
    lower, upper:
        Variable bounds; scalars broadcast.  Defaults: ``0 <= x``.
    maximize:
        Sense of the objective.

    :func:`solve_highs` keeps the HiGHS-ready cost and bound vectors it
    derives from a problem in the problem's private ``_highs_form``
    dict; a builder may hand many LPs one shared dict (see
    :func:`_highs_form`).
    """

    objective: np.ndarray
    a_ub: sp.spmatrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.spmatrix | None = None
    b_eq: np.ndarray | None = None
    lower: float | np.ndarray = 0.0
    upper: float | np.ndarray = np.inf
    maximize: bool = False

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1:
            raise ValidationError("objective must be a 1-D coefficient vector")
        if not np.isfinite(self.objective).all():
            raise ValidationError(
                "objective coefficients must be finite (a corrupt problem "
                "would silently poison the solve)"
            )
        n = self.num_vars
        self.b_ub = self._check_block("a_ub", self.a_ub, self.b_ub, n)
        self.b_eq = self._check_block("a_eq", self.a_eq, self.b_eq, n)
        self._check_bounds()

    def _check_bounds(self) -> None:
        """Reject bound values no LP can mean: NaN, and inverted infinities.

        ``lower = -inf`` and ``upper = +inf`` are legitimate (free /
        one-sided variables); ``NaN`` anywhere, ``lower = +inf`` or
        ``upper = -inf`` can only come from corrupted data — comparisons
        against NaN are all false, so without this check such values
        sail through ``bounds_arrays`` and poison the backend.
        """
        lo, hi = self.lower, self.upper
        if _is_scalar(lo) and _is_scalar(hi):
            has_nan = math.isnan(lo) or math.isnan(hi)
            lo_inf, hi_inf = lo == math.inf, hi == -math.inf
        else:
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            has_nan = np.isnan(lo).any() or np.isnan(hi).any()
            lo_inf, hi_inf = (lo == np.inf).any(), (hi == -np.inf).any()
        if has_nan:
            raise ValidationError("variable bounds must not contain NaN")
        if lo_inf:
            raise ValidationError("a lower bound is +inf (no feasible value)")
        if hi_inf:
            raise ValidationError("an upper bound is -inf (no feasible value)")

    @staticmethod
    def _check_block(name, mat, rhs, n) -> np.ndarray | None:
        """Validate one constraint block; return the coerced 1-D rhs."""
        if (mat is None) != (rhs is None):
            raise ValidationError(f"{name} and its rhs must come together")
        if mat is None:
            return None
        # Scalars (e.g. a single-row block with rhs 5.0) are legal input;
        # as a 1-vector, shape[0] stays valid instead of an IndexError.
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 0:
            rhs = rhs.reshape(1)
        elif rhs.ndim != 1:
            raise ValidationError(
                f"{name}'s rhs must be a scalar or 1-D vector, "
                f"got shape {rhs.shape}"
            )
        if not np.isfinite(rhs).all():
            raise ValidationError(
                f"{name}'s rhs must be finite; non-finite right-hand sides "
                "(e.g. from a corrupt checkpoint) are rejected"
            )
        if mat.shape[1] != n:
            raise ValidationError(
                f"{name} has {mat.shape[1]} columns, expected {n}"
            )
        if mat.shape[0] != rhs.shape[0]:
            raise ValidationError(
                f"{name} has {mat.shape[0]} rows but rhs has {rhs.shape[0]}"
            )
        return rhs

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper bounds broadcast to full vectors."""
        if _is_scalar(self.lower) and _is_scalar(self.upper):
            if self.lower > self.upper:
                raise ValidationError("a lower bound exceeds its upper bound")
            n = self.num_vars
            return np.full(n, float(self.lower)), np.full(n, float(self.upper))
        lo = np.broadcast_to(np.asarray(self.lower, float), (self.num_vars,))
        hi = np.broadcast_to(np.asarray(self.upper, float), (self.num_vars,))
        if np.any(lo > hi):
            raise ValidationError("a lower bound exceeds its upper bound")
        return lo.copy(), hi.copy()


def _is_scalar(value) -> bool:
    """Whether ``value`` is a Python (or NumPy float) scalar bound."""
    return isinstance(value, (int, float))


@dataclass(frozen=True)
class LPSolution:
    """A solved LP.

    Attributes
    ----------
    x:
        Optimal variable values.
    objective:
        Optimal objective value *in the problem's stated sense* (i.e.
        already negated back for maximization problems).
    iterations:
        Simplex/IPM iteration count reported by the backend.
    ineq_duals, eq_duals:
        Dual values (shadow prices) of the inequality and equality
        blocks, sign-adjusted so that a positive inequality dual means
        "one more unit of right-hand side improves the stated objective
        by this much."  ``None`` when the backend reported no duals
        (e.g. MILP solves).
    """

    x: np.ndarray
    objective: float
    iterations: int = 0
    ineq_duals: np.ndarray | None = None
    eq_duals: np.ndarray | None = None


@dataclass(frozen=True)
class SolveResilience:
    """Policy knobs of the resilient solve chain (see module docstring).

    Attributes
    ----------
    max_retries:
        Extra attempts on the primary backend after the first failure.
    perturbation:
        Relative right-hand-side relaxation applied per retry: attempt
        ``k`` solves with ``b * (1 + k * perturbation)``.  Small enough
        to be numerical noise, large enough to escape degenerate bases.
    fallback_backend:
        Backend tried when the primary one is exhausted (``None``
        disables the fallback stage).
    fallback_max_vars:
        The fallback only engages for instances with at most this many
        variables — the reference simplex is exact but dense and slow.
    """

    max_retries: int = 2
    perturbation: float = 1e-9
    fallback_backend: str | None = "simplex"
    fallback_max_vars: int = 800

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 <= self.perturbation < 1e-3:
            raise ValidationError(
                "perturbation must be a tiny non-negative relative factor, "
                f"got {self.perturbation}"
            )
        if self.fallback_max_vars < 0:
            raise ValidationError(
                f"fallback_max_vars must be >= 0, got {self.fallback_max_vars}"
            )


#: The chain configuration used when callers just say "be resilient".
DEFAULT_RESILIENCE = SolveResilience()


class SolveBudget:
    """A cooperative wall-clock allowance for one solve pass.

    The budget is a countdown clock shared by every stage of a solve
    pass (stage 1, the stage-2/alpha-escalation loop, RET probes): the
    first consumer starts it, and each subsequent :meth:`check` raises
    :class:`~repro.errors.BudgetExceededError` once ``wall_time_s`` has
    elapsed.  The HiGHS backend additionally receives the remaining
    time as its native ``time_limit`` so a single long LP solve cannot
    blow through the deadline between two cooperative checks.

    The clock is deliberately explicit: the online controller calls
    :meth:`restart` at each epoch boundary so one budget object covers
    the whole run, while standalone callers can hand a fresh budget to
    :meth:`~repro.core.scheduler.Scheduler.schedule` or
    :func:`~repro.core.ret.solve_ret` and let the callee start it.

    Parameters
    ----------
    wall_time_s:
        Total wall-clock allowance, in seconds, per :meth:`restart`.
    min_backend_time_s:
        Floor on the ``time_limit`` handed to the backend, so a nearly
        exhausted budget never passes a zero or negative limit.
    """

    def __init__(
        self, wall_time_s: float, min_backend_time_s: float = 1e-3
    ) -> None:
        if not wall_time_s > 0:
            raise ValidationError(
                f"wall_time_s must be positive, got {wall_time_s}"
            )
        if not min_backend_time_s > 0:
            raise ValidationError(
                f"min_backend_time_s must be positive, got {min_backend_time_s}"
            )
        self.wall_time_s = float(wall_time_s)
        self.min_backend_time_s = float(min_backend_time_s)
        self._deadline: float | None = None

    @property
    def started(self) -> bool:
        """Whether the countdown is running."""
        return self._deadline is not None

    def restart(self) -> "SolveBudget":
        """(Re)start the countdown: full ``wall_time_s`` from now."""
        self._deadline = time.perf_counter() + self.wall_time_s
        return self

    def ensure_started(self) -> "SolveBudget":
        """Start the countdown only if it is not already running."""
        if self._deadline is None:
            self.restart()
        return self

    def remaining(self) -> float:
        """Seconds left (may be negative once overrun; full if unstarted)."""
        if self._deadline is None:
            return self.wall_time_s
        return self._deadline - time.perf_counter()

    def expired(self) -> bool:
        """Whether a started countdown has run out."""
        return self._deadline is not None and self.remaining() <= 0.0

    def check(self, where: str = "solve") -> None:
        """Cooperative watchdog point; raises once the budget is spent."""
        self.ensure_started()
        if self.expired():
            raise BudgetExceededError(
                f"solve budget of {self.wall_time_s:g}s exhausted at "
                f"{where!r}",
                where=where,
                wall_time_s=self.wall_time_s,
            )

    def backend_time_limit(self) -> float:
        """The ``time_limit`` to hand the backend (never non-positive)."""
        return max(self.remaining(), self.min_backend_time_s)

    def __repr__(self) -> str:
        state = f"remaining={self.remaining():.3f}s" if self.started else "idle"
        return f"SolveBudget(wall_time_s={self.wall_time_s:g}, {state})"


def _matrix_nnz(matrix) -> int:
    """Stored-entry count of an optional (sparse or dense) matrix."""
    if matrix is None:
        return 0
    if sp.issparse(matrix):
        return int(matrix.nnz)
    return int(np.count_nonzero(matrix))


def _record_solve(
    problem: LinearProgram,
    solution: LPSolution,
    backend: str,
    seconds: float,
    label: str | None,
) -> None:
    """Append one ``lp_solve`` record describing a finished solve."""
    telemetry = current()
    if not telemetry.enabled:
        return
    num_ub = problem.a_ub.shape[0] if problem.a_ub is not None else 0
    num_eq = problem.a_eq.shape[0] if problem.a_eq is not None else 0
    telemetry.record(
        "lp_solve",
        label=label,
        backend=backend,
        num_vars=problem.num_vars,
        num_rows=num_ub + num_eq,
        num_ub_rows=num_ub,
        num_eq_rows=num_eq,
        nnz=_matrix_nnz(problem.a_ub) + _matrix_nnz(problem.a_eq),
        iterations=solution.iterations,
        status="optimal",
        maximize=problem.maximize,
        objective=solution.objective,
        seconds=seconds,
    )
    telemetry.count("lp_solves")
    telemetry.count("lp_iterations", solution.iterations)


def _perturbed(problem: LinearProgram, relax: float) -> LinearProgram:
    """Copy of ``problem`` with every inequality rhs relaxed by ``relax``.

    Only the ``<=`` block is touched: relaxing it keeps every feasible
    point feasible, so the retry can never turn a solvable instance
    infeasible.  Equality rows and bounds are left exact.
    """
    if problem.b_ub is None or relax <= 0.0:
        return problem
    b_ub = problem.b_ub + relax * np.maximum(np.abs(problem.b_ub), 1.0)
    return LinearProgram(
        objective=problem.objective,
        a_ub=problem.a_ub,
        b_ub=b_ub,
        a_eq=problem.a_eq,
        b_eq=problem.b_eq,
        lower=problem.lower,
        upper=problem.upper,
        maximize=problem.maximize,
    )


def solve_lp(
    problem: LinearProgram,
    backend: str = "highs",
    label: str | None = None,
    resilience: SolveResilience | None = None,
    budget: SolveBudget | None = None,
) -> LPSolution:
    """Solve ``problem``; raise typed errors on failure.

    Parameters
    ----------
    problem:
        The LP to solve.
    backend:
        Name of a backend registered with
        :func:`repro.engine.backend.register_backend`.  Bundled:
        ``"highs"`` (default, SciPy's HiGHS — use this at scale) and
        ``"simplex"`` (the pure-Python reference solver in
        :mod:`repro.lp.simplex`, for small instances and auditing; it
        does not report duals).  Unknown names raise
        :class:`~repro.errors.ValidationError`.
    label:
        Free-form tag stored on the ``lp_solve`` telemetry record (e.g.
        ``"stage2"``) so multi-solve pipelines stay tellable apart.  Under
        a :class:`~repro.obs.Telemetry` collector each solve is timed
        under an ``"lp_solve"`` span and recorded with its dimensions,
        nnz, iteration count, backend and status.
    resilience:
        Optional :class:`SolveResilience` enabling the bounded
        retry-perturb-fallback chain described in the module docstring.
        ``None`` (the default) solves exactly once.
    budget:
        Optional :class:`SolveBudget` watchdog.  Checked before every
        attempt, and forwarded to the HiGHS backend as its native
        ``time_limit``.  A :class:`~repro.errors.BudgetExceededError` is
        never retried by the resilience chain — running out of wall
        time is a policy decision for the caller's degradation ladder,
        not a solver failure.

    Raises
    ------
    InfeasibleProblemError
        No feasible point exists.
    UnboundedProblemError
        The objective is unbounded in the requested sense.
    BudgetExceededError
        ``budget`` ran out before an attempt started or during a
        backend solve.
    SolverError
        Any other backend failure (numerical issues, limits).  With a
        resilience policy, raised only after the whole chain is
        exhausted, and carries ``backend``, ``retries`` and
        ``backends_tried`` context.
    """
    # Lazy import: repro.engine.backend imports this module for the
    # bundled backend implementations, so the registry lookup must not
    # run at import time.
    from ..engine.backend import get_backend

    backend_obj = get_backend(backend)
    if budget is not None:
        budget.check(label or "lp_solve")
    if resilience is None:
        return backend_obj.solve(problem, label=label, budget=budget)

    tried: list[str] = []
    retries = 0
    last_error: SolverError | None = None
    for attempt in range(resilience.max_retries + 1):
        if budget is not None:
            budget.check(label or "lp_solve")
        candidate = (
            problem
            if attempt == 0
            else _perturbed(problem, attempt * resilience.perturbation)
        )
        tried.append(backend)
        try:
            return backend_obj.solve(candidate, label=label, budget=budget)
        except (InfeasibleProblemError, UnboundedProblemError):
            raise  # modelling outcomes, not failures: never retried
        except SolverError as exc:
            last_error = exc
            retries = attempt
            telemetry = current()
            telemetry.record(
                "solve_retry",
                label=label,
                backend=backend,
                attempt=attempt,
                status=exc.status,
                message=str(exc),
            )
            telemetry.count("lp_retries")

    fallback = resilience.fallback_backend
    if (
        fallback is not None
        and fallback != backend
        and problem.num_vars <= resilience.fallback_max_vars
    ):
        tried.append(fallback)
        current().count("lp_backend_fallbacks")
        if budget is not None:
            budget.check(label or "lp_solve")
        try:
            return get_backend(fallback).solve(
                problem, label=label, budget=budget
            )
        except (InfeasibleProblemError, UnboundedProblemError):
            raise
        except SolverError as exc:
            last_error = exc

    assert last_error is not None
    raise SolverError(
        f"resilient solve chain exhausted after {len(tried)} attempts "
        f"({' -> '.join(tried)}): {last_error}",
        status=last_error.status,
        backend=tried[-1],
        retries=retries,
        backends_tried=tuple(tried),
    )


_MODEL = _highs.HighsModelStatus

#: ``scipy.optimize.linprog``'s 0-4 status code for each HiGHS model
#: status; every status not listed maps to 4 ("numerical difficulties").
#: linprog reports a model HiGHS refuses to load as infeasible (2).
_LINPROG_STATUS = {
    _MODEL.kOptimal: 0,
    _MODEL.kTimeLimit: 1,
    _MODEL.kIterationLimit: 1,
    _MODEL.kInfeasible: 2,
    _MODEL.kModelError: 2,
    _MODEL.kUnbounded: 3,
}

#: linprog's post-solve feasibility tolerance: ``sqrt(tol) * 10`` at its
#: default ``tol = 1e-9``.
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10

_EMPTY = np.empty(0)


@dataclass(frozen=True)
class HighsRun:
    """What one HiGHS run reports; see :func:`run_highs`.

    The solution fields are filled only when ``status`` is ``kOptimal``.
    """

    status: _highs.HighsModelStatus
    message: str
    x: np.ndarray | None = None
    row_value: np.ndarray | None = None
    row_dual: np.ndarray | None = None
    objective: float = float("nan")
    iterations: int = 0


#: Per-thread solver state: ``highs``, the thread's HiGHS instance.
_local = threading.local()


def _thread_highs():
    """This thread's HiGHS instance, made on first use."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _highs._Highs()
        highs.setOptionValue("output_flag", False)
        _local.highs = highs
    return highs


def run_highs(
    cost: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    time_limit: float | None = None,
) -> HighsRun:
    """Run HiGHS once on ``min cost @ x`` subject to
    ``row_lower <= A @ x <= row_upper`` and ``col_lower <= x <= col_upper``.

    ``rows`` is ``A`` as canonical CSR ``(indptr, indices, data)``
    arrays.  Each thread loads every LP into one HiGHS instance of its
    own, clearing the previous model first, so no basis carries over
    between solves and each answer equals a fresh instance's.  HiGHS's
    defaults (dual simplex, presolve on, no debug checks) are linprog's
    settings, so only logging is turned off and the time limit set:
    ``time_limit`` seconds for this run, none when ``None``.  Only this
    function and :func:`_thread_highs` call into HiGHS.
    """
    highs = _thread_highs()
    highs.clearModel()
    # HiGHS's run clock keeps counting across run() calls on one
    # instance (neither clear() nor clearModel() resets it), so the
    # option is a reading of that clock, not a duration.
    limit = np.inf if time_limit is None else float(time_limit)
    highs.setOptionValue("time_limit", highs.getRunTime() + limit)
    indptr, indices, data = rows
    num_col = cost.shape[0]
    loaded = highs.passModel(
        num_col,
        row_lower.shape[0],
        data.shape[0],
        int(_highs.MatrixFormat.kRowwise),
        int(_highs.ObjSense.kMinimize),
        0.0,
        cost,
        col_lower,
        col_upper,
        row_lower,
        row_upper,
        indptr,
        indices,
        data,
        np.zeros(num_col, dtype=np.int32),  # every column continuous
    )
    if loaded == _highs.HighsStatus.kError:
        status = _MODEL.kModelError
    else:
        run_failed = highs.run() == _highs.HighsStatus.kError
        status = highs.getModelStatus()
        if run_failed and status == _MODEL.kOptimal:
            status = _MODEL.kSolveError  # as linprog: no solution to read
    message = highs.modelStatusToString(status)
    if status != _MODEL.kOptimal:
        return HighsRun(status, message)
    solution = highs.getSolution()
    # Two reads, not getInfo(): that copies every info field per solve.
    _, objective = highs.getInfoValue("objective_function_value")
    _, iterations = highs.getInfoValue("simplex_iteration_count")
    return HighsRun(
        status,
        message,
        x=np.array(solution.col_value),
        row_value=np.array(solution.row_value),
        row_dual=np.array(solution.row_dual),
        objective=objective,
        iterations=iterations,
    )


def _canonical_csr(block):
    """A constraint block as CSR with sorted, duplicate-free indices.

    Dense blocks (which :class:`LinearProgram` allows) are converted,
    dropping their zeros, exactly as linprog's own conversion did.
    """
    if not sp.issparse(block):
        return sp.csr_array(np.asarray(block, dtype=float))
    if block.format != "csr":
        block = block.tocsr()
    if not block.has_canonical_format:
        block = block.copy()
        block.sum_duplicates()
    return block


def _stacked_rows(problem: LinearProgram) -> tuple[np.ndarray, ...]:
    """``[a_ub; a_eq]`` as CSR ``(indptr, indices, data)`` arrays.

    A lone canonical block with float data already is its own stacking,
    in values and dtypes, so its arrays go to HiGHS as they are: the
    ``capacity_floor`` block a structure caches is the HiGHS-ready rows
    of every stage-2 and SUB-RET solve over it.
    """
    blocks = [_canonical_csr(b) for b in (problem.a_ub, problem.a_eq) if b is not None]
    if len(blocks) == 1 and blocks[0].data.dtype == np.float64:
        (block,) = blocks
        return block.indptr, block.indices, block.data
    indptr = [np.zeros(1, dtype=np.int32)]
    indices = [np.empty(0, dtype=np.int32)]
    data = [_EMPTY]
    offset = 0
    for block in blocks:
        indptr.append(block.indptr[1:] + offset)
        indices.append(block.indices)
        data.append(block.data)
        offset += block.nnz
    return np.concatenate(indptr), np.concatenate(indices), np.concatenate(data)


def _highs_form(problem: LinearProgram) -> dict:
    """The HiGHS-ready vectors of ``problem`` that its ``<=`` rhs leaves alone.

    ``cost`` (the objective of the minimization HiGHS solves),
    ``col_lower``/``col_upper`` (full bound vectors), ``lo``/``hi`` (the
    bounds as given, scalars or vectors, for the post-solve check and
    the clamp) and ``row_lower``.  They are made on the first solve and
    kept in ``problem._highs_form``.  LPs that agree in objective,
    sense, bounds, ``<=`` row count and equality block may share one
    dict, so each is made once for all of them (see
    :func:`repro.engine.assembly.capacity_floor_lp`).
    """
    form = problem.__dict__.get("_highs_form")
    if form is None:
        form = problem._highs_form = {}
    if not form:
        col_lower, col_upper = problem.bounds_arrays()
        scalar = _is_scalar(problem.lower) and _is_scalar(problem.upper)
        b_ub = _EMPTY if problem.b_ub is None else problem.b_ub
        b_eq = _EMPTY if problem.b_eq is None else problem.b_eq
        form.update(
            cost=-problem.objective if problem.maximize else problem.objective,
            col_lower=col_lower,
            col_upper=col_upper,
            lo=float(problem.lower) if scalar else col_lower,
            hi=float(problem.upper) if scalar else col_upper,
            row_lower=np.concatenate((np.full(b_ub.shape[0], -np.inf), b_eq)),
        )
    return form


def _passes_linprog_check(
    run: HighsRun,
    lo: np.ndarray | float,
    hi: np.ndarray | float,
    b_ub: np.ndarray,
    b_eq: np.ndarray,
) -> bool:
    """linprog's post-solve check of an "optimal" HiGHS answer.

    The point must be NaN-free, inside its bounds and every ``<=`` row,
    and on every equality row, each to within :data:`_FEASIBILITY_TOL`.
    ``lo``/``hi`` are vectors or scalars for all columns.  A least or
    greatest entry is NaN when any entry is, so each test below fails on
    NaN exactly as the entrywise tests it stands for.
    """
    tol = _FEASIBILITY_TOL
    if math.isnan(run.objective):
        return False
    x = run.x
    if x.shape[0]:
        if isinstance(lo, float) and isinstance(hi, float):
            if not (x.min() >= lo - tol and x.max() <= hi + tol):
                return False
        elif not ((x >= lo - tol) & (x <= hi + tol)).all():
            return False
    m_ub = b_ub.shape[0]
    if m_ub and not (b_ub - run.row_value[:m_ub]).min() >= -tol:
        return False
    if b_eq.shape[0]:
        residual = b_eq - run.row_value[m_ub:]
        if not (residual.min() >= -tol and residual.max() <= tol):
            return False
    return True


def solve_highs(
    problem: LinearProgram,
    label: str | None = None,
    budget: SolveBudget | None = None,
) -> LPSolution:
    """One HiGHS solve of ``problem``, with linprog's status mapping.

    Infeasible and unbounded answers raise their typed errors.  HiGHS
    stopping at the ``time_limit`` taken from ``budget`` raises
    :class:`~repro.errors.BudgetExceededError`, which is never retried.
    Every other non-optimal outcome, including an iteration limit and an
    "optimal" point that fails linprog's feasibility check, raises
    :class:`~repro.errors.SolverError` carrying linprog's 0-4 status.
    """
    form = _highs_form(problem)
    lo, hi = form["lo"], form["hi"]
    b_ub = _EMPTY if problem.b_ub is None else problem.b_ub
    b_eq = _EMPTY if problem.b_eq is None else problem.b_eq
    time_limit = None if budget is None else budget.backend_time_limit()
    with current().span("lp_solve") as span:
        run = run_highs(
            form["cost"],
            form["col_lower"],
            form["col_upper"],
            form["row_lower"],
            np.concatenate((b_ub, b_eq)),
            _stacked_rows(problem),
            time_limit,
        )
    status = _LINPROG_STATUS.get(run.status, 4)
    message = f"LP solve failed: {run.message}"
    if status == 0 and not _passes_linprog_check(run, lo, hi, b_ub, b_eq):
        status = 4
        message = (
            "LP solve failed: HiGHS reported an optimum that violates its "
            f"bounds or rows by more than {_FEASIBILITY_TOL:.2e}"
        )
    if status == 2:
        raise InfeasibleProblemError()
    if status == 3:
        raise UnboundedProblemError()
    if run.status == _MODEL.kTimeLimit and budget is not None:
        # HiGHS hit the time_limit we set from the budget: report it as
        # a budget outcome, not a solver failure, so it is never retried.
        raise BudgetExceededError(
            f"HiGHS hit the budget time_limit during {label or 'lp_solve'}",
            where=label or "lp_solve",
            wall_time_s=budget.wall_time_s,
        )
    if status != 0:
        raise SolverError(message, status=status)
    objective = float(run.objective)
    if problem.maximize:
        objective = -objective
    x = run.x
    # HiGHS round-off can land just outside the box on either side (tiny
    # negatives on >=0 variables, hairs above an upper bound); clamp both
    # so downstream capacity checks never see out-of-bound values.
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)

    # HiGHS's row duals are d(min)/d(rhs) of the solved minimization
    # form; relaxing an upper bound can only lower the minimum, so they
    # are non-positive on binding <= rows.  The *improvement* of the
    # stated objective per unit of rhs is -dual in both senses (for
    # maximization the solved objective was negated, flipping the
    # derivative once more).
    duals = -run.row_dual
    solution = LPSolution(
        x=x,
        objective=objective,
        iterations=int(run.iterations),
        ineq_duals=duals[: b_ub.shape[0]],
        eq_duals=duals[b_ub.shape[0]:],
    )
    _record_solve(problem, solution, "highs", span.elapsed, label)
    return solution
