"""Unit tests for the end-to-end Scheduler facade."""

import numpy as np
import pytest

from repro import (
    Job,
    JobSet,
    Scheduler,
    TimeGrid,
    ValidationError,
)
from repro.network import topologies


class TestSchedulerBasics:
    def test_line_end_to_end(self, line3, line3_jobs):
        result = Scheduler(line3).schedule(line3_jobs)
        assert result.zstar == pytest.approx(2.0)
        assert not result.overloaded
        assert result.normalized_throughput("lpdar") == pytest.approx(1.0)
        assert result.meets_fairness("lpdar")
        assert result.alpha_escalations == 0

    def test_x_is_lpdar(self, line3, line3_jobs):
        result = Scheduler(line3).schedule(line3_jobs)
        assert np.array_equal(result.x, result.assignments.x_lpdar)

    def test_assignment_selector(self, line3, line3_jobs):
        result = Scheduler(line3).schedule(line3_jobs)
        for name in ("lp", "lpd", "lpdar"):
            assert result.assignment(name).shape == (result.structure.num_cols,)
        with pytest.raises(ValidationError):
            result.assignment("bogus")

    def test_explicit_grid_used(self, line3, line3_jobs):
        grid = TimeGrid.uniform(8, slice_length=0.5)
        result = Scheduler(line3, slice_length=99.0).schedule(line3_jobs, grid)
        assert result.structure.grid is grid

    def test_default_grid_covers_jobs(self, line3, line3_jobs):
        result = Scheduler(line3, slice_length=1.0).schedule(line3_jobs)
        assert result.structure.grid.end >= line3_jobs.max_end()

    def test_parameter_validation(self, line3):
        with pytest.raises(ValidationError):
            Scheduler(line3, alpha=-0.1)
        with pytest.raises(ValidationError):
            Scheduler(line3, alpha=0.5, alpha_max=0.3)
        with pytest.raises(ValidationError):
            Scheduler(line3, slice_length=0.0)


class TestDeadEdgeRouting:
    """Edges a capacity profile zeroes for the whole horizon must never
    appear in any computed path — a job routes around the outage or is
    modelled as pathless, but never holds grants on a dead link."""

    def test_paths_skip_whole_horizon_outage(self, diamond):
        from repro import CapacityProfile

        grid = TimeGrid.uniform(4)
        profile = CapacityProfile.with_maintenance(
            diamond, grid, [(1, 3, 0.0, 4.0, 0)]
        )
        jobs = JobSet([Job(id=0, source=0, dest=3, size=2.0, start=0.0, end=4.0)])
        structure = Scheduler(diamond, k_paths=4).build_structure(
            jobs, grid, capacity_profile=profile
        )
        dead = {diamond.edge_id(1, 3), diamond.edge_id(3, 1)}
        for paths in structure.paths:
            for path in paths:
                assert not dead & set(path.edge_ids)
        # The surviving 0-2-3 path still carries the whole job.
        result = Scheduler(diamond, k_paths=4).schedule(
            jobs, grid, capacity_profile=profile
        )
        assert result.fraction_finished() == 1.0

    def test_partial_outage_keeps_edge_routable(self, diamond):
        from repro import CapacityProfile

        grid = TimeGrid.uniform(4)
        # Dead for 3 of 4 slices: not a whole-horizon outage, so the
        # edge stays in the path set and the LP handles the zeros.
        profile = CapacityProfile.with_maintenance(
            diamond, grid, [(1, 3, 0.0, 3.0, 0)]
        )
        jobs = JobSet([Job(id=0, source=0, dest=3, size=2.0, start=0.0, end=4.0)])
        structure = Scheduler(diamond, k_paths=4).build_structure(
            jobs, grid, capacity_profile=profile
        )
        used = {e for paths in structure.paths for p in paths for e in p.edge_ids}
        assert diamond.edge_id(1, 3) in used


class TestOverloadBehaviour:
    @pytest.fixture
    def overloaded(self, line3):
        return JobSet(
            [
                Job(id="a", source=0, dest=2, size=10.0, start=0.0, end=4.0),
                Job(id="b", source=0, dest=2, size=6.0, start=0.0, end=4.0),
            ]
        )

    def test_overload_detected(self, line3, overloaded):
        result = Scheduler(line3).schedule(overloaded)
        assert result.overloaded
        assert result.zstar == pytest.approx(0.5)

    def test_guaranteed_sizes_follow_remark2(self, line3, overloaded):
        result = Scheduler(line3).schedule(overloaded)
        z = result.job_throughputs("lpdar")
        expected = np.minimum(z, 1.0) * overloaded.sizes()
        assert np.allclose(result.guaranteed_sizes("lpdar"), expected)
        assert np.all(result.guaranteed_sizes("lpdar") <= overloaded.sizes() + 1e-9)

    def test_fraction_finished_under_overload(self, line3, overloaded):
        result = Scheduler(line3).schedule(overloaded)
        assert result.fraction_finished("lp") < 1.0

    def test_alpha_escalation_on_integer_fairness_violation(self):
        """One wavelength, two 1-slice jobs: only one can be served.

        The LPDAR solution inevitably gives one job Z_i = 0, violating any
        positive floor, so Remark-1 escalation runs up to alpha_max.
        """
        net = topologies.line(2, capacity=1)
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=1, size=1.0, start=0.0, end=1.0),
                Job(id=1, source=0, dest=1, size=1.0, start=0.0, end=1.0),
            ]
        )
        sched = Scheduler(net, alpha=0.1, alpha_step=0.2, alpha_max=0.9)
        result = sched.schedule(jobs)
        assert result.alpha_escalations > 0
        assert result.alpha == pytest.approx(0.9)
        assert not result.meets_fairness("lpdar")

    def test_escalation_disabled(self):
        net = topologies.line(2, capacity=1)
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=1, size=1.0, start=0.0, end=1.0),
                Job(id=1, source=0, dest=1, size=1.0, start=0.0, end=1.0),
            ]
        )
        result = Scheduler(net, alpha=0.1, alpha_step=0.0).schedule(jobs)
        assert result.alpha == 0.1
        assert result.alpha_escalations == 0


class TestGrants:
    def test_grants_match_assignment(self, line3, line3_jobs):
        result = Scheduler(line3).schedule(line3_jobs)
        grants = list(result.grants())
        total = sum(g.wavelengths for g in grants)
        assert total == pytest.approx(result.x.sum())
        for g in grants:
            assert g.wavelengths >= 1
            assert g.interval[0] < g.interval[1]

    def test_grants_slice_major_order(self, line3, line3_jobs):
        result = Scheduler(line3).schedule(line3_jobs)
        slices = [g.slice_index for g in result.grants()]
        assert slices == sorted(slices)

    def test_grants_paths_belong_to_job(self, diamond):
        jobs = JobSet([Job(id="j", source=0, dest=3, size=8.0, start=0.0, end=4.0)])
        result = Scheduler(diamond, k_paths=2).schedule(jobs)
        for g in result.grants():
            assert g.job_id == "j"
            assert g.path[0] == 0 and g.path[-1] == 3

    def test_lp_grants_rounded_display(self, line3, line3_jobs):
        result = Scheduler(line3).schedule(line3_jobs)
        # Grants of the fractional LP exist too (diagnostics).
        assert list(result.grants("lp"))


class TestWeightsAndOrders:
    def test_custom_weights_forwarded(self, line3):
        jobs = JobSet(
            [
                Job(id="big", source=0, dest=2, size=8.0, start=0.0, end=4.0),
                Job(id="small", source=0, dest=2, size=2.0, start=0.0, end=4.0),
            ]
        )
        sched = Scheduler(line3, alpha=0.5, alpha_step=0.0)
        favored = sched.schedule(jobs, weights=np.array([0.01, 10.0]))
        z = favored.job_throughputs("lp")
        assert z[1] > z[0]

    def test_greedy_order_variants_all_feasible(self, line3, line3_jobs, rng):
        for order in ("paper", "deficit_first"):
            result = Scheduler(line3, greedy_order=order).schedule(line3_jobs)
            assert result.structure.capacity_violation(result.x) == 0.0
        result = Scheduler(line3, greedy_order="random", rng=rng).schedule(line3_jobs)
        assert result.structure.capacity_violation(result.x) == 0.0


class TestJobWeightPassthrough:
    def test_explicit_job_weights_drive_stage2(self, line3):
        """A tiny job with a huge weight outranks the big default job."""
        jobs = JobSet(
            [
                Job(id="big", source=0, dest=2, size=8.0, start=0.0, end=4.0),
                Job(id="vip", source=0, dest=2, size=2.0, start=0.0, end=4.0,
                    weight=1000.0),
            ]
        )
        result = Scheduler(line3, alpha=0.5, alpha_step=0.0).schedule(jobs)
        z = result.job_throughputs("lp")
        assert z[1] > z[0]

    def test_no_weights_means_size_weighting(self, line3, line3_jobs):
        """Without explicit weights behaviour is unchanged (size weights)."""
        result = Scheduler(line3).schedule(line3_jobs)
        assert result.normalized_throughput("lpdar") == pytest.approx(1.0)


def _served(seed, journal, memo_for_stage1, monkeypatch):
    """Journal lines and solve counters of one service run.

    With ``memo_for_stage1=False`` every engine solve inside a scheduling
    pass bypasses the memo, as the pass's stage 1 did before it went
    through :meth:`~repro.engine.ModelEngine.cached_solve`.
    """
    import asyncio
    from pathlib import Path

    from repro.engine.engine import ModelEngine
    from repro.obs import Telemetry
    from repro.service import ClosedLoopDriver, ReservationService
    from repro.verify.fuzz import make_scenario

    inside = []
    cached_solve, schedule = ModelEngine.cached_solve, Scheduler.schedule

    def bypassing(self, *args, **kwargs):
        if inside:
            kwargs["cache"] = False
        return cached_solve(self, *args, **kwargs)

    def in_pass(self, *args, **kwargs):
        inside.append(True)
        try:
            return schedule(self, *args, **kwargs)
        finally:
            inside.pop()

    with monkeypatch.context() as patch:
        if not memo_for_stage1:
            patch.setattr(ModelEngine, "cached_solve", bypassing)
            patch.setattr(Scheduler, "schedule", in_pass)
        scenario = make_scenario(seed)
        service = ReservationService(
            scenario.network, journal=str(journal),
            fault_schedule=scenario.fault_schedule,
            queue_limit=4096, rate=4096.0,
        )
        with Telemetry() as telemetry:
            asyncio.run(ClosedLoopDriver(service, scenario.jobs,
                                         max_epochs=400).run())
        service.close()

    counters = telemetry.counters
    return (
        Path(journal).read_bytes(),
        counters["lp_solves"],
        counters.get("memo_hits", 0),
    )


class TestStage1ThroughEngineMemo:
    @pytest.mark.parametrize("seed", [3, 6])
    def test_service_replays_admission_probes(self, seed, tmp_path,
                                              monkeypatch):
        before = _served(seed, tmp_path / "a.jsonl", False, monkeypatch)
        after = _served(seed, tmp_path / "b.jsonl", True, monkeypatch)
        saved = before[1] - after[1]
        assert saved > 0
        assert after[2] - before[2] == saved
        assert after[0] == before[0]

    def test_cold_engine_still_solves_stage1(self, line3, line3_jobs):
        from repro.engine import ModelEngine
        from repro.obs import Telemetry

        engine = ModelEngine(line3, 4, warm_start=False)
        scheduler = Scheduler(line3, engine=engine)
        with Telemetry() as telemetry:
            scheduler.schedule(line3_jobs)
            scheduler.schedule(line3_jobs)
        assert "memo_hits" not in telemetry.counters
        stage1 = [r for r in telemetry.records_of("lp_solve")
                  if r["label"] == "stage1"]
        assert len(stage1) == 2
