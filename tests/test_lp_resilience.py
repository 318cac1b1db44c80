"""The resilient solve chain in repro.lp.solver.

These tests drive the retry / perturbation / backend-fallback machinery
by monkeypatching :func:`repro.lp.solver.run_highs`, the solver module's
one call into HiGHS, to fail in controlled ways, mirroring the style of
``test_failure_injection.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus

import repro.lp.solver as solver_mod
from repro import (
    DEFAULT_RESILIENCE,
    InfeasibleProblemError,
    LinearProgram,
    SolveResilience,
    SolverError,
    Telemetry,
    ValidationError,
    solve_lp,
)


def tiny_lp() -> LinearProgram:
    """max x0 + x1 s.t. x0 + x1 <= 3, 0 <= x <= 2 — optimum 3."""
    import scipy.sparse as sp

    return LinearProgram(
        objective=np.array([1.0, 1.0]),
        a_ub=sp.csr_matrix(np.array([[1.0, 1.0]])),
        b_ub=np.array([3.0]),
        upper=2.0,
        maximize=True,
    )


class _FlakyHighs:
    """Delegates to the real HiGHS run after ``failures`` solve errors."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0
        self.real = solver_mod.run_highs

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            return solver_mod.HighsRun(
                HighsModelStatus.kSolveError, "simulated numerical failure"
            )
        return self.real(*args, **kwargs)


class TestSolveResilienceValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValidationError):
            SolveResilience(max_retries=-1)
        with pytest.raises(ValidationError):
            SolveResilience(perturbation=-1e-9)
        with pytest.raises(ValidationError):
            SolveResilience(perturbation=0.5)
        with pytest.raises(ValidationError):
            SolveResilience(fallback_max_vars=-1)

    def test_default_policy_is_sane(self):
        assert DEFAULT_RESILIENCE.max_retries == 2
        assert DEFAULT_RESILIENCE.fallback_backend == "simplex"


class TestRetryChain:
    def test_none_resilience_fails_on_first_error(self, monkeypatch):
        flaky = _FlakyHighs(failures=1)
        monkeypatch.setattr(solver_mod, "run_highs", flaky)
        with pytest.raises(SolverError):
            solve_lp(tiny_lp())  # resilience=None: single shot
        assert flaky.calls == 1

    def test_retry_recovers_after_transient_failure(self, monkeypatch):
        flaky = _FlakyHighs(failures=2)
        monkeypatch.setattr(solver_mod, "run_highs", flaky)
        solution = solve_lp(
            tiny_lp(), resilience=SolveResilience(max_retries=2)
        )
        assert flaky.calls == 3
        assert solution.objective == pytest.approx(3.0, abs=1e-6)

    def test_perturbation_moves_optimum_by_noise_only(self, monkeypatch):
        flaky = _FlakyHighs(failures=1)
        monkeypatch.setattr(solver_mod, "run_highs", flaky)
        solution = solve_lp(
            tiny_lp(),
            resilience=SolveResilience(
                max_retries=1, perturbation=1e-9, fallback_backend=None
            ),
        )
        # The retry solved the relaxed problem: optimum within noise of 3.
        assert solution.objective == pytest.approx(3.0, abs=1e-6)

    def test_infeasible_is_never_retried(self, monkeypatch):
        calls = {"n": 0}
        real = solver_mod.run_highs

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "run_highs", counting)
        import scipy.sparse as sp

        infeasible = LinearProgram(
            objective=np.array([1.0]),
            a_ub=sp.csr_matrix(np.array([[1.0]])),
            b_ub=np.array([-1.0]),  # x <= -1 with x >= 0
        )
        with pytest.raises(InfeasibleProblemError):
            solve_lp(infeasible, resilience=SolveResilience(max_retries=5))
        assert calls["n"] == 1

    def test_fallback_to_simplex_rescues_small_instance(self, monkeypatch):
        flaky = _FlakyHighs(failures=99)  # highs never succeeds
        monkeypatch.setattr(solver_mod, "run_highs", flaky)
        solution = solve_lp(
            tiny_lp(),
            resilience=SolveResilience(max_retries=1, fallback_backend="simplex"),
        )
        assert flaky.calls == 2  # first try + one retry, then simplex
        assert solution.objective == pytest.approx(3.0, abs=1e-6)

    def test_fallback_skipped_for_large_instances(self, monkeypatch):
        flaky = _FlakyHighs(failures=99)
        monkeypatch.setattr(solver_mod, "run_highs", flaky)
        with pytest.raises(SolverError) as info:
            solve_lp(
                tiny_lp(),
                resilience=SolveResilience(
                    max_retries=0, fallback_backend="simplex", fallback_max_vars=1
                ),
            )
        assert info.value.backends_tried == ("highs",)

    def test_exhausted_chain_carries_context(self, monkeypatch):
        flaky = _FlakyHighs(failures=99)
        monkeypatch.setattr(solver_mod, "run_highs", flaky)

        def broken_simplex(problem):
            raise SolverError("simplex also down", status=7)

        import repro.lp.simplex as simplex_mod

        monkeypatch.setattr(simplex_mod, "simplex_solve", broken_simplex)
        with pytest.raises(SolverError) as info:
            solve_lp(tiny_lp(), resilience=SolveResilience(max_retries=2))
        err = info.value
        assert err.backends_tried == ("highs", "highs", "highs", "simplex")
        assert err.backend == "simplex"
        assert err.retries == 2
        assert err.status == 7
        assert "exhausted" in str(err)

    def test_unknown_backend_rejected_before_any_solve(self):
        with pytest.raises(ValidationError):
            solve_lp(tiny_lp(), backend="cplex", resilience=DEFAULT_RESILIENCE)


class TestRetryTelemetry:
    def test_retries_and_fallbacks_are_counted(self, monkeypatch):
        flaky = _FlakyHighs(failures=99)
        monkeypatch.setattr(solver_mod, "run_highs", flaky)
        telemetry = Telemetry()
        solve_lp(
            tiny_lp(),
            telemetry=telemetry,
            label="stage1",
            resilience=SolveResilience(max_retries=1),
        )
        assert telemetry.counters["lp_retries"] == 2
        assert telemetry.counters["lp_backend_fallbacks"] == 1
        retry_records = telemetry.records_of("solve_retry")
        assert len(retry_records) == 2
        assert retry_records[0]["label"] == "stage1"
        assert retry_records[0]["status"] == 4
        # The successful simplex solve still logs a normal lp_solve record.
        solves = telemetry.records_of("lp_solve")
        assert solves and solves[-1]["backend"] == "simplex"

    def test_clean_solve_records_nothing_extra(self):
        telemetry = Telemetry()
        solve_lp(tiny_lp(), telemetry=telemetry, resilience=DEFAULT_RESILIENCE)
        assert "lp_retries" not in telemetry.counters
        assert "lp_backend_fallbacks" not in telemetry.counters


class TestSolverErrorContext:
    def test_plain_solver_error_defaults(self):
        err = SolverError("boom")
        assert err.status is None
        assert err.backend is None
        assert err.retries == 0
        assert err.backends_tried == ()
