"""Solver-backend registry: pluggable LP backends behind one protocol.

Historically :func:`repro.lp.solver.solve_lp` hardcoded its two backends
(``"highs"`` and ``"simplex"``) behind string comparisons, so adding a
third solver meant editing the dispatch chain.  This module turns the
backend into a first-class object: anything exposing ``name`` and
``solve(problem, ...)`` can be registered under a name and every solve
entry point in the repository reaches it through :func:`get_backend`.

Cold solves
-----------

Every backend solves each LP from scratch; there is no basis or dual
hint protocol.  The HiGHS backend drives SciPy's bundled HiGHS directly,
and that binding could take a basis (``setBasis``/``getBasis``), but a
basis-started solve of a degenerate LP can stop at a different optimal
vertex than a cold one, which would change every schedule downstream.
The reference simplex is a from-scratch two-phase tableau.  The reuse
the model engine does perform (returning a memoized solution verbatim
when the probe's LP is bit-identical to an already-solved one) lives
one layer up, in :meth:`repro.engine.ModelEngine.cached_solve`,
precisely because it is backend-independent.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..errors import ValidationError
from ..lp import simplex
from ..lp.solver import (
    LinearProgram,
    LPSolution,
    SolveBudget,
    _record_solve,
    solve_highs,
)
from ..obs import current

__all__ = [
    "SolverBackend",
    "HighsBackend",
    "SimplexBackend",
    "register_backend",
    "get_backend",
    "available_backends",
]


@runtime_checkable
class SolverBackend(Protocol):
    """What every registered LP backend must look like."""

    name: str

    def solve(
        self,
        problem: LinearProgram,
        *,
        label: str | None = None,
        budget: SolveBudget | None = None,
    ) -> LPSolution:
        """Solve ``problem``, raising the shared typed errors on failure."""
        ...


class HighsBackend:
    """HiGHS's dual simplex, driven through SciPy's bundled binding —
    the at-scale default."""

    name = "highs"

    def solve(
        self,
        problem: LinearProgram,
        *,
        label: str | None = None,
        budget: SolveBudget | None = None,
    ) -> LPSolution:
        return solve_highs(problem, label, budget)


class SimplexBackend:
    """The pure-Python two-phase reference simplex (small instances)."""

    name = "simplex"

    def solve(
        self,
        problem: LinearProgram,
        *,
        label: str | None = None,
        budget: SolveBudget | None = None,
    ) -> LPSolution:
        # The pure-Python simplex has no native time limit; an overrun
        # here is caught by the next cooperative check rather than
        # discarding the (valid) solution it just produced.
        with current().span("lp_solve") as span:
            solution = simplex.simplex_solve(problem)
        _record_solve(problem, solution, self.name, span.elapsed, label)
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
