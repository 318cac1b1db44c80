"""Typed exceptions used across the library.

The library never signals failure through sentinel return values: every
error condition a caller may want to handle programmatically is raised as
one of the exception classes below, all rooted at :class:`ReproError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "SolverError",
    "InfeasibleProblemError",
    "UnboundedProblemError",
    "ScheduleError",
    "BudgetExceededError",
    "JournalError",
    "JournalLockedError",
    "JournalWriteError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ValidationError(ReproError, ValueError):
    """Invalid user input: malformed job, graph, grid or parameter."""


class SolverError(ReproError, RuntimeError):
    """The underlying LP/MILP solver failed for a non-modelling reason.

    This wraps unexpected HiGHS statuses (numerical trouble, iteration
    limits) as opposed to the well-defined modelling outcomes captured by
    :class:`InfeasibleProblemError` and :class:`UnboundedProblemError`.

    When raised by the resilient solve chain (``solve_lp`` with a
    :class:`~repro.lp.solver.SolveResilience`), the error also carries
    which backends were tried and how many retries were spent, so callers
    and telemetry can tell a first-shot failure from an exhausted chain.
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        backend: str | None = None,
        retries: int = 0,
        backends_tried: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        #: Raw status code reported by the backend, when available.
        self.status = status
        #: Backend that produced the final failure, when known.
        self.backend = backend
        #: Number of retry attempts the solve chain spent before giving up.
        self.retries = retries
        #: Every backend the solve chain attempted, in order.
        self.backends_tried = backends_tried


class InfeasibleProblemError(SolverError):
    """The optimization problem admits no feasible solution."""

    def __init__(self, message: str = "problem is infeasible") -> None:
        super().__init__(message, status=2)


class UnboundedProblemError(SolverError):
    """The optimization problem is unbounded."""

    def __init__(self, message: str = "problem is unbounded") -> None:
        super().__init__(message, status=3)


class ScheduleError(ReproError, RuntimeError):
    """A scheduling algorithm could not produce a valid schedule.

    Raised, for example, when Algorithm 2 (RET) exhausts ``b_max`` without
    finding an end-time extension under which every job completes.
    """


class BudgetExceededError(ReproError, RuntimeError):
    """A solve overran its :class:`~repro.lp.solver.SolveBudget`.

    Deliberately *not* a :class:`SolverError`: running out of wall time
    is a policy outcome, not a backend failure, so the resilient solve
    chain never retries it and the degradation ladder in
    :class:`~repro.core.scheduler.Scheduler` catches it separately.
    """

    def __init__(
        self,
        message: str,
        where: str | None = None,
        wall_time_s: float | None = None,
    ) -> None:
        super().__init__(message)
        #: Pipeline stage at which the budget ran out (e.g. ``"stage2"``).
        self.where = where
        #: The budget's total wall-clock allowance, when known.
        self.wall_time_s = wall_time_s


class JournalError(ReproError, RuntimeError):
    """An epoch journal is missing, unreadable or beyond tail recovery.

    Torn or corrupt *tails* are recovered silently (the journal resumes
    from its last valid record); this error means the journal cannot be
    used at all — no file, no valid header, or an unsupported schema
    version.
    """


class JournalLockedError(JournalError):
    """Another live controller process holds the journal's append lock.

    Opening a journal for appending takes an exclusive ``<path>.lock``
    file carrying the owner's PID; a second opener from a *different
    live process* gets this error instead of silently interleaving
    appends with the first.  Locks left behind by dead
    processes (a crashed controller) are stale and stolen silently, as
    are locks held by the opener's own PID — a same-process reopen is
    exactly the crash-test resume path.

    Attributes
    ----------
    owner_pid:
        PID recorded in the conflicting lock file.
    """

    def __init__(self, message: str, owner_pid: int | None = None) -> None:
        super().__init__(message)
        self.owner_pid = owner_pid


class JournalWriteError(JournalError):
    """An append could not be made durable; the prior journal is intact.

    Raised when writing the new line fails — disk full (``ENOSPC``), an
    I/O error (``EIO``), or a torn write injected by the chaos engine.
    Unlike its parent this is *not* a verdict on the journal itself:
    the last durable commit is still on disk (a failed write is cut
    back to it, and recovery drops a torn line), so the correct
    reaction is fail-stop — treat the entry as never committed, do not
    act on it (the reservation service withholds the batch's responses),
    and resume from the journal once the fault clears.

    Attributes
    ----------
    path:
        Path of the journal whose append failed, when known.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        super().__init__(message)
        self.path = path
