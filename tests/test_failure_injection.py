"""Failure injection: backend failures and degraded-path behaviour.

These tests force the rare failure paths — solver backend returning
unexpected statuses, RET exhausting its budget inside the simulator,
workloads whose every member is unschedulable — and assert the library
degrades with typed errors or best-effort behaviour instead of crashes
or silent corruption.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize._highspy._core import HighsModelStatus

import repro.lp.solver as solver_module
from repro import (
    BudgetExceededError,
    Job,
    JobSet,
    LinearProgram,
    ProblemStructure,
    ScheduleError,
    Simulation,
    SolveBudget,
    SolveResilience,
    SolverError,
    TimeGrid,
    ValidationError,
    solve_lp,
    solve_ret,
    solve_stage1,
)
from repro.network import topologies


def _fake_run(status, message="injected failure"):
    """Stand-in for ``repro.lp.solver.run_highs`` ending in ``status``."""
    return lambda *a, **k: solver_module.HighsRun(status, message)


class TestSolverFailurePaths:
    @pytest.fixture
    def lp(self):
        return LinearProgram(
            objective=np.ones(1),
            a_ub=sp.csr_matrix(np.array([[1.0]])),
            b_ub=np.array([1.0]),
        )

    def test_unexpected_status_becomes_solver_error(self, lp, monkeypatch):
        monkeypatch.setattr(
            solver_module, "run_highs", _fake_run(HighsModelStatus.kSolveError)
        )
        with pytest.raises(SolverError) as exc:
            solve_lp(lp)
        assert exc.value.status == 4
        assert "injected" in str(exc.value)

    def test_iteration_limit_status(self, lp, monkeypatch):
        monkeypatch.setattr(
            solver_module,
            "run_highs",
            _fake_run(HighsModelStatus.kIterationLimit),
        )
        with pytest.raises(SolverError):
            solve_lp(lp)

    def test_time_limit_under_budget_is_budget_exceeded(self, lp, monkeypatch):
        calls = []

        def timed_out(*args, **kwargs):
            calls.append(args[-1])
            return solver_module.HighsRun(HighsModelStatus.kTimeLimit, "")

        monkeypatch.setattr(solver_module, "run_highs", timed_out)
        with pytest.raises(BudgetExceededError):
            solve_lp(
                lp,
                budget=SolveBudget(60.0),
                resilience=SolveResilience(max_retries=3),
            )
        assert len(calls) == 1  # a budget outcome is never retried
        assert 0 < calls[0] <= 60.0  # the budget reached HiGHS as time_limit

    def test_iteration_limit_under_budget_stays_retriable(self, lp, monkeypatch):
        real = solver_module.run_highs
        calls = []

        def capped_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                return solver_module.HighsRun(
                    HighsModelStatus.kIterationLimit, ""
                )
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "run_highs", capped_once)
        with pytest.raises(SolverError) as exc:
            solve_lp(lp, budget=SolveBudget(60.0))
        assert not isinstance(exc.value, BudgetExceededError)
        assert exc.value.status == 1
        calls.clear()
        solution = solve_lp(
            lp,
            budget=SolveBudget(60.0),
            resilience=SolveResilience(max_retries=1, fallback_backend=None),
        )
        assert len(calls) == 2
        assert solution.objective == pytest.approx(0.0)

    def test_stage1_propagates_solver_error(self, line3, line3_jobs, monkeypatch):
        s = ProblemStructure(line3, line3_jobs, TimeGrid.uniform(4))
        monkeypatch.setattr(
            solver_module, "run_highs", _fake_run(HighsModelStatus.kSolveError)
        )
        with pytest.raises(SolverError):
            solve_stage1(s)

    def test_simplex_pivot_limit(self):
        from repro.lp.simplex import simplex_solve

        lp = LinearProgram(
            objective=-np.ones(3),
            a_ub=sp.csr_matrix(np.eye(3)),
            b_ub=np.ones(3),
        )
        with pytest.raises(SolverError, match="pivots"):
            simplex_solve(lp, max_pivots=1)


class TestRetBudgetExhaustion:
    def test_extend_policy_survives_ret_failure(self):
        """When RET cannot complete everything within b_max, the extend
        policy must fall back to best-effort service, not crash."""
        net = topologies.line(3, capacity=1, wavelength_rate=1.0)
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=50.0, start=0.0, end=2.0),
                Job(id=1, source=0, dest=2, size=50.0, start=0.0, end=2.0),
            ]
        )
        sim = Simulation(net, policy="extend", ret_b_max=0.2)
        result = sim.run(jobs, horizon=6.0)
        # Nothing completed, but the run finished and volume moved.
        assert result.num_completed == 0
        assert result.delivered_volume > 0

    def test_solve_ret_error_is_typed(self):
        net = topologies.line(3, capacity=1, wavelength_rate=1.0)
        jobs = JobSet(
            [Job(id=0, source=0, dest=2, size=100.0, start=0.0, end=2.0)]
        )
        with pytest.raises(ScheduleError):
            solve_ret(net, jobs, b_max=0.5)


class TestDegenerateWorkloads:
    def test_every_job_unschedulable_prefix(self):
        from repro import admit_max_prefix

        net = topologies.line(2, capacity=1)
        jobs = JobSet(
            [
                Job(id=i, source=0, dest=1, size=1.0, start=0.2, end=0.8)
                for i in range(3)
            ]
        )
        decision = admit_max_prefix(net, jobs, TimeGrid.uniform(1))
        assert decision.num_admitted == 0
        assert decision.num_rejected == 3

    def test_simulation_where_everything_expires(self):
        net = topologies.line(3, capacity=1, wavelength_rate=1.0)
        jobs = JobSet(
            [
                Job(id=i, source=0, dest=2, size=1000.0, start=0.0, end=1.0)
                for i in range(3)
            ]
        )
        result = Simulation(net, policy="reduce").run(jobs, horizon=3.0)
        assert len(result.by_status("expired")) == 3
        # Progress was still made on the single available slice.
        assert result.delivered_volume > 0

    def test_structure_rejects_all_paths_gone(self):
        """A capacity profile cannot remove paths, but an unreachable
        destination must fail loudly at structure build time."""
        from repro import Network

        net = Network()
        net.add_edge(0, 1, 1)  # one-way only
        jobs = JobSet([Job(id=0, source=1, dest=0, size=1.0, start=0.0, end=1.0)])
        with pytest.raises(ValidationError, match="no path"):
            ProblemStructure(net, jobs, TimeGrid.uniform(1))
