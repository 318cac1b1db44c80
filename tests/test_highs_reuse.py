"""One reused HiGHS instance per thread.

Each thread loads every LP into one HiGHS instance, cleared before each
load.  That may not change an answer: these tests pin the reused,
reordered and threaded runs to fresh-instance runs bit for bit, check
that HiGHS's run clock (which keeps counting across ``run()`` calls on
one instance) does not eat later solves' time limits, and that a forked
fleet still schedules after the parent has solved on its instance.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    BudgetExceededError,
    InfeasibleProblemError,
    LinearProgram,
    Scheduler,
    SolveBudget,
    admit_max_prefix,
    solve_ret,
)
from repro.engine.backend import HighsBackend
from repro.lp import solver as solver_module
from repro.lp.solver import solve_highs, solve_lp
from repro.parallel import TaskSpec, run_fleet
from repro.verify.fuzz import make_scenario

SEEDS = range(12)

#: Fuzz seeds the forked fleet schedules; each pass raises alpha all the
#: way, so each solves six LPs.
FLEET_SEEDS = (3, 8, 13)

_OPTIMAL = solver_module._MODEL.kOptimal


@pytest.fixture(scope="module")
def recorded() -> list[LinearProgram]:
    """Every LP the HiGHS backend saw while the fuzz pipelines ran."""
    problems: list[LinearProgram] = []
    real = HighsBackend.solve

    def recording(self, problem, *, label=None, **kwargs):
        problems.append(problem)
        return real(self, problem, label=label, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HighsBackend, "solve", recording)
        for seed in SEEDS:
            scenario = make_scenario(seed, allow_faults=False)
            Scheduler(scenario.network).schedule(scenario.jobs, scenario.grid)
            solve_ret(scenario.network, scenario.jobs, b_max=4.0, delta=0.5)
            admit_max_prefix(
                scenario.network, scenario.jobs, scenario.grid, threshold=2.0
            )
    return problems


def _inputs(problem: LinearProgram) -> tuple:
    """The arguments ``run_highs`` gets for ``problem``, no time limit."""
    cost = -problem.objective if problem.maximize else problem.objective
    lo, hi = problem.bounds_arrays()
    empty = np.empty(0)
    b_ub = empty if problem.b_ub is None else problem.b_ub
    b_eq = empty if problem.b_eq is None else problem.b_eq
    return (
        cost,
        lo,
        hi,
        np.concatenate((np.full(b_ub.shape[0], -np.inf), b_eq)),
        np.concatenate((b_ub, b_eq)),
        solver_module._stacked_rows(problem),
    )


def _fresh_run(inputs) -> solver_module.HighsRun:
    """``run_highs`` on a new HiGHS instance."""
    vars(solver_module._local).pop("highs", None)
    return solver_module.run_highs(*inputs)


def _bits(value) -> bytes | None:
    return None if value is None else np.asarray(value, np.float64).tobytes()


def _fingerprint(run: solver_module.HighsRun) -> tuple:
    return (
        run.status,
        run.iterations,
        _bits(run.objective),
        _bits(run.x),
        _bits(run.row_dual),
    )


class TestReusedInstance:
    def test_reuse_reorder_and_thread_match_fresh_instances(self, recorded):
        inputs = [_inputs(p) for p in recorded]
        fresh = [_fingerprint(_fresh_run(i)) for i in inputs]
        assert len(fresh) >= 100
        assert sum(f[0] == _OPTIMAL for f in fresh) >= 50

        forward = [_fingerprint(solver_module.run_highs(*i)) for i in inputs]
        backward = [
            _fingerprint(solver_module.run_highs(*i)) for i in inputs[::-1]
        ][::-1]
        with ThreadPoolExecutor(max_workers=1) as pool:
            threaded = [
                _fingerprint(run)
                for run in pool.map(
                    lambda i: solver_module.run_highs(*i), inputs
                )
            ]
        assert forward == fresh
        assert backward == fresh
        assert threaded == fresh

    def test_run_clock_does_not_eat_later_time_limits(self, recorded):
        """HiGHS's run clock keeps counting across runs on one instance;
        each solve must still get its whole budget."""
        highs = solver_module._thread_highs()
        warmup = 0
        while highs.getRunTime() <= 0.06 and warmup < 5000:
            solver_module.run_highs(
                *_inputs(recorded[warmup % len(recorded)])
            )
            warmup += 1
        assert highs.getRunTime() > 0.06  # past one budget already

        optimal = 0
        for k in range(200):
            problem = recorded[k % len(recorded)]
            try:
                solve_lp(problem, budget=SolveBudget(0.05))
            except InfeasibleProblemError:
                continue
            optimal += 1
        assert optimal >= 100

        largest = max(recorded, key=lambda p: p.num_vars)
        with pytest.raises(BudgetExceededError):
            solve_highs(
                largest, budget=SolveBudget(1e-6, min_backend_time_s=1e-6)
            )


def _schedule_in_worker(seed: int) -> bytes | None:
    """Fleet task: one scheduling pass; its integer plan."""
    scenario = make_scenario(seed, allow_faults=False)
    result = Scheduler(scenario.network).schedule(scenario.jobs, scenario.grid)
    return _bits(result.x)


class TestForkedFleet:
    def test_fleet_schedules_after_a_pass_in_the_parent(self):
        """Forked workers inherit the parent's used instance and still
        give the parent's answers."""
        expected = [_schedule_in_worker(seed) for seed in FLEET_SEEDS]
        assert getattr(solver_module._local, "highs", None) is not None

        specs = [
            TaskSpec(f"{__name__}:_schedule_in_worker", {"seed": seed})
            for seed in FLEET_SEEDS
        ]
        results = run_fleet(specs, jobs=2, start_method="fork",
                            task_timeout=120.0)
        assert all(r.ok for r in results), [r.error for r in results]
        assert [r.value for r in results] == expected
