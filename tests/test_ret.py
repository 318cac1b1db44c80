"""Unit tests for SUB-RET and Algorithm 2 (Relaxing End Times)."""

import numpy as np
import pytest

from repro import (
    InfeasibleProblemError,
    Job,
    JobSet,
    ProblemStructure,
    ScheduleError,
    TimeGrid,
    ValidationError,
    solve_ret,
    solve_subret_lp,
)
from repro.core.ret import build_subret_lp, quick_finish_gamma
from repro.engine import ModelEngine
from repro.obs import Telemetry


class TestQuickFinishGamma:
    def test_values(self):
        assert quick_finish_gamma(np.array([0, 1, 5])).tolist() == [1.0, 2.0, 6.0]


class TestSubRetLP:
    def test_feasible_instance_completes_all(self, line3, grid4):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=4.0, start=0.0, end=4.0)])
        s = ProblemStructure(line3, jobs, grid4)
        sol = solve_subret_lp(s)
        assert np.all(s.delivered(sol.x) >= s.demands - 1e-7)
        assert s.capacity_violation(sol.x) <= 1e-7

    def test_infeasible_raises(self, line3, grid4):
        # 20 volume through capacity 2 * 4 slices = 8 max.
        jobs = JobSet([Job(id=0, source=0, dest=2, size=20.0, start=0.0, end=4.0)])
        s = ProblemStructure(line3, jobs, grid4)
        with pytest.raises(InfeasibleProblemError):
            solve_subret_lp(s)

    def test_quick_finish_packs_early(self, line3, grid4):
        """QF cost strictly increasing => delivery fills earliest slices."""
        jobs = JobSet([Job(id=0, source=0, dest=2, size=4.0, start=0.0, end=4.0)])
        s = ProblemStructure(line3, jobs, grid4)
        sol = solve_subret_lp(s)
        # Demand 4 at 2/slice: exactly slices 0 and 1 carry 2 each.
        assert sol.x == pytest.approx([2.0, 2.0, 0.0, 0.0])

    def test_constant_gamma_allows_late_packing(self, line3, grid4):
        """With flat costs the LP has no early-packing incentive."""
        jobs = JobSet([Job(id=0, source=0, dest=2, size=4.0, start=0.0, end=4.0)])
        s = ProblemStructure(line3, jobs, grid4)
        lp = build_subret_lp(s, gamma=lambda j: np.ones_like(j, dtype=float))
        # Objective counts total wavelength-slices, identical for any packing.
        assert np.allclose(lp.objective, 1.0)

    def test_gamma_must_be_positive(self, line3, grid4):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=1.0, start=0.0, end=4.0)])
        s = ProblemStructure(line3, jobs, grid4)
        with pytest.raises(ValidationError):
            build_subret_lp(s, gamma=lambda j: np.zeros_like(j, dtype=float))


class TestAlgorithm2:
    def test_underloaded_returns_zero_extension(self, line3):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=4.0, start=0.0, end=4.0)])
        result = solve_ret(line3, jobs)
        assert result.b_hat == 0.0
        assert result.b_final == 0.0
        assert result.fraction_finished("lpdar") == 1.0

    def test_overloaded_finds_minimal_extension(self, line3):
        """18 volume at 2/slice needs 9 slices; end 3 -> b = 2 exactly."""
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=10.0, start=0.0, end=3.0),
                Job(id=1, source=0, dest=2, size=8.0, start=0.0, end=3.0),
            ]
        )
        result = solve_ret(line3, jobs, search_tol=1e-4)
        assert result.b_hat == pytest.approx(2.0, abs=1e-3)
        assert result.b_final == pytest.approx(2.0, abs=1e-3)
        assert result.fraction_finished("lpdar") == 1.0

    def test_all_jobs_complete_under_lpdar(self, diamond):
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=3, size=9.0, start=0.0, end=3.0),
                Job(id=1, source=1, dest=2, size=5.0, start=0.0, end=2.0),
            ]
        )
        result = solve_ret(diamond, jobs, k_paths=2)
        s = result.structure
        delivered = s.delivered(result.assignments.x_lpdar)
        assert np.all(delivered >= s.demands - 1e-6)
        assert s.capacity_violation(result.assignments.x_lpdar) == 0.0

    def test_monotone_feasibility_of_binary_search(self, line3):
        """b_final never below b_hat; both within [0, b_max]."""
        jobs = JobSet([Job(id=0, source=0, dest=2, size=12.0, start=0.0, end=2.0)])
        result = solve_ret(line3, jobs, b_max=5.0)
        assert 0.0 <= result.b_hat <= result.b_final <= 5.0 + result.delta_steps * 0.1 + 1e-9

    def test_infeasible_at_bmax_raises(self, line3):
        """Extension capped below the required b = 2."""
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=10.0, start=0.0, end=3.0),
                Job(id=1, source=0, dest=2, size=8.0, start=0.0, end=3.0),
            ]
        )
        with pytest.raises(ScheduleError, match="infeasible"):
            solve_ret(line3, jobs, b_max=0.5)

    def test_parameter_validation(self, line3):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=1.0, start=0.0, end=2.0)])
        with pytest.raises(ValidationError):
            solve_ret(line3, jobs, b_max=0.0)
        with pytest.raises(ValidationError):
            solve_ret(line3, jobs, delta=0.0)
        with pytest.raises(ValidationError):
            solve_ret(line3, jobs, search_tol=0.0)

    def test_average_end_time_accessors(self, line3):
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=10.0, start=0.0, end=3.0),
                Job(id=1, source=0, dest=2, size=8.0, start=0.0, end=3.0),
            ]
        )
        result = solve_ret(line3, jobs)
        lp_end = result.average_end_time("lp")
        lpdar_end = result.average_end_time("lpdar")
        assert lp_end <= lpdar_end + 1e-9  # LP at least as fast (Fig. 4)
        assert lpdar_end <= 9.0 + 1e-9

    def test_unknown_assignment_name_rejected(self, line3):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=1.0, start=0.0, end=2.0)])
        result = solve_ret(line3, jobs)
        with pytest.raises(ValidationError):
            result.fraction_finished("bogus")

    def test_paper_order_uncapped_variant_also_completes(self, line3):
        """The paper-literal greedy (no demand cap) still finishes all jobs
        here, possibly at a larger b."""
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=10.0, start=0.0, end=3.0),
                Job(id=1, source=0, dest=2, size=8.0, start=0.0, end=3.0),
            ]
        )
        result = solve_ret(line3, jobs, cap_at_target=False, order="paper")
        assert result.fraction_finished("lpdar") == 1.0

    def test_staggered_windows(self, line3):
        """Jobs with different windows extend proportionally to their own end."""
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=6.0, start=0.0, end=2.0),
                Job(id=1, source=0, dest=2, size=6.0, start=2.0, end=4.0),
            ]
        )
        result = solve_ret(line3, jobs)
        assert result.fraction_finished("lpdar") == 1.0
        # Job 0 needs 3 slices alone (cap 2): (1+b)*2 >= 3 -> b >= 0.5.
        assert result.b_final >= 0.5 - 1e-3


def _two_jobs_needing_b2():
    """18 volume at 2/slice from t=0: end 3 must stretch to 9 (b = 2)."""
    return JobSet(
        [
            Job(id=0, source=0, dest=2, size=10.0, start=0.0, end=3.0),
            Job(id=1, source=0, dest=2, size=8.0, start=0.0, end=3.0),
        ]
    )


def _traced_ret(network, jobs, **kwargs):
    """``solve_ret`` on a fresh engine, with its probes and SUB-RET solves."""
    with Telemetry() as telemetry:
        result = solve_ret(
            network, jobs, engine=ModelEngine(network, 4), **kwargs
        )
    subret_solves = [
        r for r in telemetry.records_of("lp_solve") if r["label"] == "subret"
    ]
    return result, telemetry.records_of("ret_probe"), subret_solves


class TestDeferredBound:
    """Algorithm 2 probes ``b = 0`` first; ``b_max`` is solved only where
    the search ends."""

    def test_feasible_at_zero_solves_one_lp(self, line3):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=4.0, start=0.0, end=4.0)])
        result, probes, solves = _traced_ret(line3, jobs, b_max=10.0)
        assert result.b_hat == 0.0
        assert len(solves) == 1
        assert [(p["phase"], p["b"]) for p in probes] == [("bounds", 0.0)]

    def test_search_below_b_max_never_solves_it(self, line3):
        result, probes, _ = _traced_ret(
            line3, _two_jobs_needing_b2(), b_max=10.0, search_tol=1e-4
        )
        assert result.b_hat == pytest.approx(2.0, abs=1e-3)
        assert probes[0]["b"] == 0.0 and not probes[0]["feasible"]
        assert all(p["b"] != 10.0 for p in probes)

    def test_search_ending_at_b_max_solves_it_last(self, line3):
        # Every bisection probe below b = 2 is infeasible, so hi stays
        # at b_max and its LP is the rounding point.
        result, probes, _ = _traced_ret(
            line3, _two_jobs_needing_b2(), b_max=2.0, search_tol=1e-3
        )
        assert result.b_hat == 2.0
        assert result.fraction_finished("lpdar") == 1.0
        bound = [p for p in probes if p["b"] == 2.0]
        assert [(p["phase"], p["feasible"]) for p in bound] == [
            ("bounds", True)
        ]
        assert not any(p["feasible"] for p in probes if p["b"] < 2.0)

    def test_infeasible_at_b_max_keeps_the_message(self, line3):
        with pytest.raises(ScheduleError) as excinfo:
            solve_ret(line3, _two_jobs_needing_b2(), b_max=0.5)
        assert str(excinfo.value) == (
            "SUB-RET is infeasible even with end times extended by "
            "(1 + 0.5); the network cannot carry this demand"
        )
