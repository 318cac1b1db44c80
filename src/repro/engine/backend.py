"""Solver-backend registry: pluggable LP backends behind one protocol.

Historically :func:`repro.lp.solver.solve_lp` hardcoded its two backends
(``"highs"`` and ``"simplex"``) behind string comparisons, so adding a
third solver meant editing the dispatch chain.  This module turns the
backend into a first-class object: anything exposing ``name``,
``supports_warm_start`` and ``solve(problem, ...)`` can be registered
under a name and every solve entry point in the repository reaches it
through :func:`get_backend`.

Warm starts
-----------

The protocol threads an optional :class:`WarmStart` hint — the previous
solution (and, for basis-capable solvers, its basis) of the *same LP
family* — into every solve.  Neither bundled backend consumes it.  The
HiGHS backend drives SciPy's bundled HiGHS directly, and that binding
does take a basis (``setBasis``/``getBasis``), but a basis-started solve
of a degenerate LP can stop at a different optimal vertex than a cold
one, which would change every schedule downstream; so each solve starts
cold.  The reference simplex is a from-scratch two-phase tableau.  Both
accept and ignore the hint so future basis-capable backends slot in
without touching call sites.  The *exact* warm-start reuse the model engine
performs (returning a memoized solution verbatim when the probe's LP is
bit-identical to an already-solved one) lives one layer up, in
:meth:`repro.engine.ModelEngine.cached_solve`, precisely because it is
backend-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ValidationError
from ..lp import simplex
from ..lp.solver import (
    LinearProgram,
    LPSolution,
    SolveBudget,
    _record_solve,
    solve_highs,
)
from ..obs import NULL_TELEMETRY, Telemetry

__all__ = [
    "WarmStart",
    "SolverBackend",
    "HighsBackend",
    "SimplexBackend",
    "register_backend",
    "get_backend",
    "available_backends",
]


@dataclass(frozen=True)
class WarmStart:
    """A starting hint carried from a previous solve of the same family.

    Attributes
    ----------
    x:
        The previous optimal point (same column layout expected).
    ineq_duals, eq_duals:
        Dual values of the previous solve's inequality / equality
        blocks, for dual-simplex-capable backends (``None`` when the
        producing backend reported none).
    basis:
        Opaque basis information for basis-capable backends (``None``
        for the bundled ones, which start every solve cold).
    label:
        The telemetry label of the solve that produced the hint.
    structure:
        The :class:`~repro.lp.model.ProblemStructure` the hint's column
        and row spaces refer to.  When the next solve of the family runs
        over a *different* (e.g. delta-patched) structure, the engine
        re-indexes the hint through
        :func:`repro.engine.delta.map_warm_start` before a
        warm-start-capable backend sees it; entries with no counterpart
        in the new structure become neutral zeros.  Excluded from
        equality/repr — it is an identity anchor, not data.

    A warm start is always *advisory*: a backend that cannot consume it
    must produce the same answer it would from a cold start, so results
    are identical whether or not the hint is supplied.
    """

    x: np.ndarray
    ineq_duals: np.ndarray | None = None
    eq_duals: np.ndarray | None = None
    basis: tuple | None = None
    label: str | None = None
    structure: object | None = field(default=None, repr=False, compare=False)


@runtime_checkable
class SolverBackend(Protocol):
    """What every registered LP backend must look like."""

    name: str
    supports_warm_start: bool

    def solve(
        self,
        problem: LinearProgram,
        *,
        warm_start: WarmStart | None = None,
        telemetry: Telemetry | None = None,
        label: str | None = None,
        budget: SolveBudget | None = None,
    ) -> LPSolution:
        """Solve ``problem``, raising the shared typed errors on failure."""
        ...


class HighsBackend:
    """HiGHS's dual simplex, driven through SciPy's bundled binding —
    the at-scale default."""

    name = "highs"
    supports_warm_start = False

    def solve(
        self,
        problem: LinearProgram,
        *,
        warm_start: WarmStart | None = None,
        telemetry: Telemetry | None = None,
        label: str | None = None,
        budget: SolveBudget | None = None,
    ) -> LPSolution:
        return solve_highs(problem, telemetry or NULL_TELEMETRY, label, budget)


class SimplexBackend:
    """The pure-Python two-phase reference simplex (small instances)."""

    name = "simplex"
    supports_warm_start = False

    def solve(
        self,
        problem: LinearProgram,
        *,
        warm_start: WarmStart | None = None,
        telemetry: Telemetry | None = None,
        label: str | None = None,
        budget: SolveBudget | None = None,
    ) -> LPSolution:
        telemetry = telemetry or NULL_TELEMETRY
        # The pure-Python simplex has no native time limit; an overrun
        # here is caught by the next cooperative check rather than
        # discarding the (valid) solution it just produced.
        with telemetry.span("lp_solve") as span:
            solution = simplex.simplex_solve(problem)
        _record_solve(telemetry, problem, solution, self.name, span.elapsed, label)
        return solution


_REGISTRY: dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend, replace: bool = False) -> SolverBackend:
    """Register ``backend`` under its ``name``; returns it for chaining.

    Re-registering an existing name raises unless ``replace=True`` —
    silently shadowing the backend every solve in the process routes
    through is exactly the kind of spooky action a registry must refuse.
    """
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise ValidationError(
            "a solver backend must expose a non-empty string `name`"
        )
    if not callable(getattr(backend, "solve", None)):
        raise ValidationError(
            f"backend {name!r} must expose a callable solve(problem, ...)"
        )
    if name in _REGISTRY and not replace:
        raise ValidationError(
            f"backend {name!r} is already registered; pass replace=True "
            "to override it"
        )
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> SolverBackend:
    """The backend registered under ``name``; raises on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(repr(n) for n in sorted(_REGISTRY)) or "none"
        raise ValidationError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


register_backend(HighsBackend())
register_backend(SimplexBackend())
