"""Tests for the observability layer (repro.obs) and its pipeline hooks."""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import (
    Job,
    JobSet,
    ProblemStructure,
    Scheduler,
    Simulation,
    Telemetry,
    TimeGrid,
    solve_lp,
    solve_ret,
)
from repro.core.ret import build_subret_lp, solve_subret_lp
from repro.core.throughput import build_stage1_lp, solve_stage1
from repro.obs import NULL_TELEMETRY, NullTelemetry, current
from repro.service import ClosedLoopDriver, ReservationService


@pytest.fixture
def overloaded_jobs():
    """Jobs the line3 network cannot finish on time (forces RET work)."""
    return JobSet(
        [
            Job(id=0, source=0, dest=2, size=10.0, start=0.0, end=3.0),
            Job(id=1, source=2, dest=0, size=6.0, start=0.0, end=2.0),
        ]
    )


class TestTelemetryObject:
    def test_spans_nest_with_dotted_paths(self):
        t = Telemetry()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        assert t.span_stats["outer"].calls == 1
        assert t.span_stats["outer.inner"].calls == 2
        assert t.span_stats["outer"].total >= t.span_stats["outer.inner"].total

    def test_span_elapsed_readable_after_block(self):
        t = Telemetry()
        with t.span("work") as span:
            pass
        assert span.elapsed >= 0.0
        assert t.seconds("work") == pytest.approx(span.elapsed)

    def test_counters_accumulate(self):
        t = Telemetry()
        t.count("things")
        t.count("things", 4)
        assert t.counters["things"] == 5

    def test_records_filtered_by_kind(self):
        t = Telemetry()
        t.record("a", value=1)
        t.record("b", value=2)
        t.record("a", value=3)
        assert [r["value"] for r in t.records_of("a")] == [1, 3]

    def test_as_dict_round_trips_through_json(self):
        t = Telemetry()
        with t.span("s"):
            t.count("c", 2)
            t.record("r", x=1.5)
        data = json.loads(t.to_json())
        assert data["counters"] == {"c": 2}
        assert data["spans"]["s"]["calls"] == 1
        assert data["records"] == [{"kind": "r", "x": 1.5}]

    def test_exception_inside_span_still_closes_it(self):
        t = Telemetry()
        with pytest.raises(RuntimeError):
            with t.span("broken"):
                raise RuntimeError("boom")
        assert t.span_stats["broken"].calls == 1
        # The stack unwound: a new span is top-level again.
        with t.span("after"):
            pass
        assert "after" in t.span_stats

    def test_render_empty_and_populated(self):
        t = Telemetry()
        assert "empty" in t.render()
        with t.span("s"):
            pass
        assert "s" in t.render()

    def test_null_telemetry_stores_nothing_but_times(self):
        with NULL_TELEMETRY.span("x") as span:
            pass
        assert span.elapsed >= 0.0
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.record("x", a=1)
        assert NULL_TELEMETRY.counters == {}
        assert NULL_TELEMETRY.records == []
        assert not NullTelemetry.enabled and Telemetry.enabled


class TestScopedCollector:
    def test_no_collector_installed_is_null(self):
        assert current() is NULL_TELEMETRY

    def test_nested_collectors_restore_the_outer_one(self):
        with Telemetry() as outer:
            assert current() is outer
            with Telemetry() as inner:
                assert current() is inner
                current().count("inner_only")
            assert current() is outer
            current().count("outer_only")
        assert current() is NULL_TELEMETRY
        assert inner.counters == {"inner_only": 1}
        assert outer.counters == {"outer_only": 1}

    def test_exception_restores_the_outer_collector(self):
        with pytest.raises(RuntimeError):
            with Telemetry():
                raise RuntimeError("boom")
        assert current() is NULL_TELEMETRY

    def test_collector_does_not_leak_into_other_threads(self):
        seen = []
        with Telemetry():
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [NULL_TELEMETRY]

    def test_collector_reaches_service_tasks_under_asyncio_run(
        self, line3, line3_jobs, tmp_path
    ):
        service = ReservationService(line3, k_paths=2,
                                     journal=str(tmp_path / "svc.jsonl"))
        with Telemetry() as t:
            asyncio.run(ClosedLoopDriver(service, line3_jobs).run())
        service.close()
        assert t.counters["service_ticks"] > 0
        assert t.counters["journal_commits"] > 0


class TestPipelineHooks:
    def test_structure_and_lp_records(self, line3_structure):
        with Telemetry() as t:
            solution = solve_lp(build_stage1_lp(line3_structure),
                                label="stage1")
        (record,) = t.records_of("lp_solve")
        assert record["label"] == "stage1"
        assert record["backend"] == "highs"
        assert record["num_vars"] == line3_structure.num_cols + 1
        assert record["nnz"] > 0
        assert record["iterations"] == solution.iterations
        assert record["seconds"] >= 0.0
        assert t.counters["lp_solves"] == 1

    def test_structure_build_recorded(self, line3, line3_jobs, grid4):
        with Telemetry() as t:
            structure = ProblemStructure(line3, line3_jobs, grid4, 2)
        (record,) = t.records_of("structure")
        assert record["num_cols"] == structure.num_cols
        assert t.span_stats["structure_build"].calls == 1

    def test_scheduler_spans_and_counters(self, line3, line3_jobs):
        with Telemetry() as t:
            Scheduler(line3, k_paths=2).schedule(line3_jobs)
        assert t.span_stats["schedule"].calls == 1
        assert t.seconds("schedule.stage1") > 0.0
        assert t.seconds("schedule.stage2") > 0.0
        assert t.counters["schedule_passes"] == 1
        assert t.records_of("greedy_adjust")

    def test_ret_trace_recorded(self, line3, overloaded_jobs):
        with Telemetry() as t:
            result = solve_ret(line3, overloaded_jobs, k_paths=2)
        probes = t.records_of("ret_probe")
        assert probes, "binary search left no trace"
        assert probes[0]["phase"] == "bounds"
        assert any(not p["feasible"] for p in probes), (
            "an overloaded instance must probe at least one infeasible b"
        )
        (final,) = t.records_of("ret_result")
        assert final["b_final"] == pytest.approx(result.b_final)
        assert final["delta_steps"] == result.delta_steps
        assert t.span_stats["ret"].calls == 1

    def test_simulation_scheduling_pass_span(self, line3, line3_jobs):
        with Telemetry() as t:
            Simulation(line3, k_paths=2).run(line3_jobs)
        assert t.span_stats["scheduling_pass"].calls >= 1


class TestTelemetryIsPassive:
    """Telemetry-enabled and default runs must match bit for bit."""

    def test_scheduler_assignments_identical(self, line3, line3_jobs):
        plain = Scheduler(line3, k_paths=2).schedule(line3_jobs)
        with Telemetry():
            measured = Scheduler(line3, k_paths=2).schedule(line3_jobs)
        assert np.array_equal(
            plain.assignments.x_lpdar, measured.assignments.x_lpdar
        )
        assert np.array_equal(plain.assignments.x_lp, measured.assignments.x_lp)
        assert plain.alpha == measured.alpha
        assert plain.zstar == measured.zstar

    def test_ret_assignments_identical(self, line3, overloaded_jobs):
        plain = solve_ret(line3, overloaded_jobs, k_paths=2)
        with Telemetry():
            measured = solve_ret(line3, overloaded_jobs, k_paths=2)
        assert plain.b_final == measured.b_final
        assert plain.delta_steps == measured.delta_steps
        assert np.array_equal(
            plain.assignments.x_lpdar, measured.assignments.x_lpdar
        )

    def test_simulation_outcomes_identical(self, line3, line3_jobs):
        plain = Simulation(line3, k_paths=2).run(line3_jobs)
        with Telemetry():
            measured = Simulation(line3, k_paths=2).run(line3_jobs)
        assert [r.status for r in plain.records] == [
            r.status for r in measured.records
        ]
        assert plain.delivered_volume == measured.delivered_volume


class TestBackendParity:
    """The auditable simplex and HiGHS must agree on small instances."""

    def test_stage1_objective_parity(self, line3_structure):
        problem = build_stage1_lp(line3_structure)
        highs = solve_lp(problem, backend="highs")
        simplex = solve_lp(problem, backend="simplex")
        assert simplex.objective == pytest.approx(highs.objective, abs=1e-6)
        zstar = solve_stage1(line3_structure).zstar
        assert simplex.x[-1] == pytest.approx(zstar, abs=1e-6)

    def test_subret_objective_parity(self, line3, overloaded_jobs):
        # Extend ends enough that SUB-RET is feasible, then compare.
        extended = overloaded_jobs.with_extended_ends(1.0)
        grid = TimeGrid.covering(extended.max_end())
        structure = ProblemStructure(line3, extended, grid, 2)
        problem = build_subret_lp(structure)
        highs = solve_lp(problem, backend="highs")
        simplex = solve_lp(problem, backend="simplex")
        assert simplex.objective == pytest.approx(highs.objective, abs=1e-6)
        # Front-end route agrees too.
        front = solve_subret_lp(structure)
        assert front.objective == pytest.approx(highs.objective, abs=1e-6)

    def test_simplex_backend_records_telemetry(self, line3_structure):
        with Telemetry() as t:
            solve_lp(build_stage1_lp(line3_structure), backend="simplex")
        (record,) = t.records_of("lp_solve")
        assert record["backend"] == "simplex"
        assert record["iterations"] >= 0
