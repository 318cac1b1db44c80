"""The refactor's central promise: the kernel changed *nothing*.

`Simulation` and `ReservationService` were rebuilt as thin drivers over
the shared :class:`~repro.control.EpochKernel`.  These tests prove the
rebuild is invisible, three ways:

* **Golden byte-identity** — `tests/data/control_golden.json` holds
  journals (and service book digests) captured from the *pre-refactor*
  code over fuzz scenarios spanning every admission policy and fault
  timelines.  The kernel-driven code must reproduce every line
  byte-for-byte: bare (``control_policy=None``), with
  :class:`~repro.control.FixedPolicy` attached, and bare under a
  :class:`~repro.obs.Telemetry` collector (telemetry is observation
  only).
* **Hypothesis property** — over fresh
  :func:`~repro.verify.fuzz.make_scenario` seeds (fault timelines
  included), a ``FixedPolicy`` run produces journals line-identical to
  a bare run and a profiled run, for both drivers; the service's
  commitment books agree digest-for-digest.
* **Crash + resume** — a ``FixedPolicy`` run crashed mid-flight and
  resumed from its journal converges to the same state as the run that
  never crashed, for both drivers.

Normalization strips only ``solve_seconds`` (wall clock) and ``crc``
(which covers it) — everything else must match exactly.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Simulation
from repro.control import FixedPolicy
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.recovery import CrashInjector, SimulatedCrash
from repro.service import ReservationService
from repro.service.driver import ClosedLoopDriver
from repro.sim import SchedulingPass
from repro.verify.fuzz import make_scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "control_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SOLVER_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

seeds = st.integers(min_value=0, max_value=10_000)

#: Golden run modes: ``(control policy factory, run under a collector)``.
RUN_MODES = pytest.mark.parametrize("policy_factory, profiled", [
    pytest.param(lambda: None, False, id="bare"),
    pytest.param(FixedPolicy, False, id="fixed-policy"),
    pytest.param(lambda: None, True, id="profiled"),
])


def _collector(profiled: bool):
    """A live collector for a profiled run, else the no-op one."""
    return Telemetry() if profiled else NULL_TELEMETRY


def _normalize(line: str) -> str:
    """Canonical journal line with the wall-clock fields stripped."""
    def strip(obj):
        if isinstance(obj, dict):
            return {
                k: strip(v) for k, v in obj.items()
                if k not in ("solve_seconds", "crc")
            }
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return json.dumps(
        strip(json.loads(line)), sort_keys=True, separators=(",", ":")
    )


def _journal_lines(path) -> list[str]:
    return [_normalize(line)
            for line in Path(path).read_text().splitlines()]


def _run_sim_journal(scenario, tmp_path, policy, admission: str):
    path = tmp_path / "sim.jsonl"
    sim = Simulation(
        scenario.network, policy=admission, k_paths=3,
        fault_schedule=scenario.fault_schedule, journal=path,
        control_policy=policy,
    )
    result = sim.run(scenario.jobs, horizon=scenario.grid.end * 3.0)
    return _journal_lines(path), result


def _run_serve_journal(scenario, tmp_path, policy):
    path = tmp_path / "serve.jsonl"
    service = ReservationService(
        scenario.network, journal=str(path),
        fault_schedule=scenario.fault_schedule,
        queue_limit=4096, rate=4096.0, control_policy=policy,
    )
    asyncio.run(ClosedLoopDriver(service, scenario.jobs,
                                 max_epochs=400).run())
    service.close()
    return _journal_lines(path), service.book.digest()


# ----------------------------------------------------------------------
# Golden byte-identity against the pre-refactor implementation
# ----------------------------------------------------------------------
class TestGoldenSimJournals:
    @pytest.mark.parametrize("key", sorted(GOLDEN["sim"]))
    @RUN_MODES
    def test_journal_bytes_match_pre_refactor(
            self, key, policy_factory, profiled, tmp_path):
        case = GOLDEN["sim"][key]
        scenario = make_scenario(case["seed"])
        assert (scenario.fault_schedule is not None) == case["faults"]
        with _collector(profiled) as telemetry:
            lines, _result = _run_sim_journal(
                scenario, tmp_path, policy_factory(), case["policy"])
        assert lines == case["lines"]
        assert not profiled or telemetry.counters["lp_solves"] > 0


class TestGoldenServiceJournals:
    @pytest.mark.parametrize("key", sorted(GOLDEN["serve"]))
    @RUN_MODES
    def test_journal_and_digest_match_pre_refactor(
            self, key, policy_factory, profiled, tmp_path):
        case = GOLDEN["serve"][key]
        scenario = make_scenario(case["seed"])
        with _collector(profiled) as telemetry:
            lines, digest = _run_serve_journal(
                scenario, tmp_path, policy_factory())
        assert lines == case["lines"]
        assert digest == case["digest"]
        assert not profiled or telemetry.counters["lp_solves"] > 0


# ----------------------------------------------------------------------
# Hypothesis: FixedPolicy is invisible on arbitrary scenarios
# ----------------------------------------------------------------------
class TestFixedPolicyInvisible:
    @SOLVER_SETTINGS
    @given(seed=seeds)
    # Faults cut every job off in these scenarios, so no LP is solved.
    @example(seed=245)
    @example(seed=2041)
    def test_sim_journals_line_identical(self, seed, tmp_path_factory):
        scenario = make_scenario(seed)  # fault timelines included
        admission = ("reduce", "extend", "reject")[seed % 3]
        bare, bare_result = _run_sim_journal(
            scenario, tmp_path_factory.mktemp("bare"), None, admission)
        fixed, fixed_result = _run_sim_journal(
            scenario, tmp_path_factory.mktemp("fixed"), FixedPolicy(),
            admission)
        with Telemetry() as telemetry:
            profiled, _ = _run_sim_journal(
                scenario, tmp_path_factory.mktemp("profiled"), None,
                admission)
        assert bare == fixed == profiled
        assert telemetry.counters["journal_commits"] > 0
        if any(isinstance(e, SchedulingPass) for e in bare_result.events):
            assert telemetry.counters["lp_solves"] > 0
        assert ([r.status for r in bare_result.records]
                == [r.status for r in fixed_result.records])
        assert bare_result.delivered_volume == pytest.approx(
            fixed_result.delivered_volume)

    @SOLVER_SETTINGS
    @given(seed=seeds)
    def test_service_journals_and_digests_identical(
            self, seed, tmp_path_factory):
        scenario = make_scenario(seed)
        bare, bare_digest = _run_serve_journal(
            scenario, tmp_path_factory.mktemp("bare"), None)
        fixed, fixed_digest = _run_serve_journal(
            scenario, tmp_path_factory.mktemp("fixed"), FixedPolicy())
        with Telemetry() as telemetry:
            profiled, profiled_digest = _run_serve_journal(
                scenario, tmp_path_factory.mktemp("profiled"), None)
        assert bare == fixed == profiled
        assert bare_digest == fixed_digest == profiled_digest
        assert telemetry.counters["lp_solves"] > 0


# ----------------------------------------------------------------------
# Crash + resume under the kernel
# ----------------------------------------------------------------------
class TestResumeDigestsIdentical:
    def test_sim_crash_resume_matches_uncrashed(self, tmp_path):
        scenario = make_scenario(5)
        horizon = scenario.grid.end * 3.0
        clean = Simulation(
            scenario.network, policy="extend", k_paths=3,
            fault_schedule=scenario.fault_schedule,
            journal=tmp_path / "clean.jsonl", control_policy=FixedPolicy(),
        ).run(scenario.jobs, horizon=horizon)

        path = tmp_path / "crash.jsonl"
        sim = Simulation(
            scenario.network, policy="extend", k_paths=3,
            fault_schedule=scenario.fault_schedule, journal=path,
            control_policy=FixedPolicy(),
            crash_injector=CrashInjector("post-commit", epoch=1),
        )
        with pytest.raises(SimulatedCrash):
            sim.run(scenario.jobs, horizon=horizon)
        resumed = Simulation.resume(path)

        assert ([(r.job.id, r.status, r.effective_end)
                 for r in resumed.records]
                == [(r.job.id, r.status, r.effective_end)
                    for r in clean.records])
        assert resumed.delivered_volume == pytest.approx(
            clean.delivered_volume)
        assert _journal_lines(path) == _journal_lines(
            tmp_path / "clean.jsonl")

    def test_service_crash_resume_matches_uncrashed(self, tmp_path):
        scenario = make_scenario(1)

        def run(path, crash_injector=None):
            service = ReservationService(
                scenario.network, journal=str(path),
                fault_schedule=scenario.fault_schedule,
                queue_limit=4096, rate=4096.0,
                control_policy=FixedPolicy(),
                crash_injector=crash_injector,
            )
            driver = ClosedLoopDriver(service, scenario.jobs,
                                      max_epochs=400)
            try:
                asyncio.run(driver.run())
            except SimulatedCrash:
                return service, False
            service.close()
            return service, True

        clean_path = tmp_path / "clean.jsonl"
        clean, finished = run(clean_path)
        assert finished

        crash_path = tmp_path / "crash.jsonl"
        _crashed, finished = run(
            crash_path, CrashInjector("post-journal", epoch=1))
        assert not finished
        resumed = ReservationService.resume(crash_path)
        driver = ClosedLoopDriver(resumed, scenario.jobs, max_epochs=400)
        asyncio.run(driver.run())
        resumed.close()

        assert resumed.book.digest() == clean.book.digest()
        assert _journal_lines(crash_path) == _journal_lines(clean_path)
