"""Tests for the durability layer: journal, crash-recovery, solve budgets.

The headline guarantee (ISSUE acceptance criteria): for every named
crash point, killing a journaled run there and resuming it yields the
same per-job delivered volumes and completion statuses as the
uninterrupted run; and under an absurdly small solve budget the
controller still commits a checker-clean assignment every epoch via the
degradation ladder instead of raising.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CRASH_POINTS,
    BudgetExceededError,
    CrashInjector,
    EpochJournal,
    Job,
    JobSet,
    JournalError,
    Scheduler,
    SimulatedCrash,
    Simulation,
    SolveBudget,
    SolverError,
    Telemetry,
    TimeGrid,
    ValidationError,
    read_journal,
    verify_assignment,
)
from repro.network import CapacityProfile, topologies
from repro.serialization import simulation_to_dict


@pytest.fixture
def sim_net():
    return topologies.line(3, capacity=2, wavelength_rate=1.0)


@pytest.fixture
def sim_jobs():
    """Three transfers spread over arrivals, so several epochs schedule."""
    return JobSet(
        [
            Job(id=0, source=0, dest=2, size=4.0, start=0.0, end=6.0,
                arrival=0.0),
            Job(id=1, source=2, dest=0, size=3.0, start=0.0, end=5.0,
                arrival=0.0),
            Job(id=2, source=0, dest=2, size=2.0, start=2.0, end=8.0,
                arrival=2.0),
        ]
    )


def _records_and_event_types(result):
    doc = simulation_to_dict(result)
    return doc["records"], [e["type"] for e in doc["events"]]


# ----------------------------------------------------------------------
# SolveBudget
# ----------------------------------------------------------------------
class TestSolveBudget:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SolveBudget(0.0)
        with pytest.raises(ValidationError):
            SolveBudget(-1.0)
        with pytest.raises(ValidationError):
            SolveBudget(1.0, min_backend_time_s=0.0)

    def test_unstarted_budget_reports_full_allowance(self):
        budget = SolveBudget(5.0)
        assert not budget.started
        assert budget.remaining() == pytest.approx(5.0)
        assert not budget.expired()

    def test_check_raises_on_exhaustion(self):
        budget = SolveBudget(1e-9)
        budget.restart()
        with pytest.raises(BudgetExceededError) as exc:
            # 1 ns is gone by the first cooperative check.
            budget.check("stage2")
        assert exc.value.where == "stage2"
        assert exc.value.wall_time_s == pytest.approx(1e-9)
        assert budget.expired()

    def test_restart_resets_the_clock(self):
        budget = SolveBudget(30.0)
        budget.restart()
        assert budget.started
        assert 0.0 < budget.remaining() <= 30.0
        budget.check("anywhere")  # plenty left

    def test_backend_time_limit_floor(self):
        budget = SolveBudget(1e-9, min_backend_time_s=0.5)
        budget.restart()
        # Even when expired, the backend gets a positive time limit.
        assert budget.backend_time_limit() == pytest.approx(0.5)

    def test_budget_error_is_not_retried_as_solver_error(self):
        """The resilience chain must not swallow budget exhaustion."""
        assert not issubclass(BudgetExceededError, SolverError)


# ----------------------------------------------------------------------
# Journal mechanics
# ----------------------------------------------------------------------
class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EpochJournal.create(path, {"run": "x", "n": 3})
        journal.append({"epoch": 0, "state": [1, 2]})
        journal.append({"epoch": 1, "state": [3]})
        replay = read_journal(path)
        assert replay.header["run"] == "x"
        assert replay.header["schema"] == 1
        assert not replay.truncated
        assert [e["epoch"] for e in replay.entries] == [0, 1]
        assert replay.last_entry["state"] == [3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            read_journal(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            read_journal(path)

    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(JournalError, match="header"):
            read_journal(path)

    def test_unsupported_schema(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EpochJournal.create(path, {"run": "x"})
        # Rewrite the header claiming a future schema version.
        import zlib

        data = dict(read_journal(path).header)
        data["schema"] = 999
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(canonical.encode())
        wrapper = {"v": 1, "crc": crc, "data": data}
        path.write_text(
            json.dumps(wrapper, sort_keys=True, separators=(",", ":")) + "\n"
        )
        with pytest.raises(JournalError, match="schema version"):
            read_journal(path)
        del journal

    def test_torn_tail_recovers_to_last_valid_entry(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EpochJournal.create(path, {"run": "x"})
        journal.append({"epoch": 0})
        journal.append_torn({"epoch": 1})
        replay = read_journal(path)
        assert replay.truncated
        assert [e["epoch"] for e in replay.entries] == [0]

    def test_corrupt_tail_bitflip_recovers(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EpochJournal.create(path, {"run": "x"})
        journal.append({"epoch": 0})
        journal.append({"epoch": 1, "payload": "aaaa"})
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace("aaaa", "aaab")  # CRC now mismatches
        path.write_text("".join(f"{ln}\n" for ln in lines))
        replay = read_journal(path)
        assert replay.truncated
        assert [e["epoch"] for e in replay.entries] == [0]

    def test_open_existing_heals_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EpochJournal.create(path, {"run": "x"})
        journal.append({"epoch": 0})
        journal.append_torn({"epoch": 1})
        healed = EpochJournal.open_existing(path)
        assert healed.num_entries == 1
        healed.append({"epoch": 1})  # first append rewrites a clean file
        replay = read_journal(path)
        assert not replay.truncated
        assert [e["epoch"] for e in replay.entries] == [0, 1]

    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**31), max_value=2**31)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=10), children, max_size=4),
        max_leaves=12,
    )

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        header=st.dictionaries(st.text(max_size=10), json_values, max_size=4),
        entries=st.lists(
            st.dictionaries(st.text(max_size=10), json_values, max_size=4),
            max_size=4,
        ),
    )
    def test_journal_roundtrip_is_identity(self, tmp_path, header, entries):
        """Property: write header + entries, read back, get them verbatim.

        The journal adds its own ``kind``/``schema`` bookkeeping fields,
        so the comparison overlays those onto the inputs.
        """
        path = tmp_path / "prop.jsonl"
        journal = EpochJournal.create(path, header)
        for entry in entries:
            journal.append(entry)
        replay = read_journal(path)
        assert not replay.truncated
        assert replay.header == {**header, "kind": "header", "schema": 1}
        assert list(replay.entries) == [
            {**entry, "kind": "epoch"} for entry in entries
        ]


# ----------------------------------------------------------------------
# Crash injector
# ----------------------------------------------------------------------
class TestJournalLock:
    """Satellite: the append lock keeps two writers off one journal."""

    def test_second_opener_gets_locked_error(self, tmp_path):
        from repro import JournalLockedError

        path = tmp_path / "j.jsonl"
        journal = EpochJournal.create(path, {"run": "x"})
        # Simulate another live process holding the lock: PID 1 is
        # always alive (same-PID locks are stolen by design, so our own
        # PID cannot exercise the contention path in one process).
        lock = tmp_path / "j.jsonl.lock"
        lock.write_text("1\n")
        with pytest.raises(JournalLockedError, match="locked by live"):
            EpochJournal.open_existing(path)
        try:
            EpochJournal.open_existing(path)
        except JournalLockedError as exc:
            assert exc.owner_pid == 1
        journal.close()

    def test_stale_dead_pid_lock_is_stolen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        EpochJournal.create(path, {"run": "x"}).close()
        lock = tmp_path / "j.jsonl.lock"
        # A PID from a crashed writer: far beyond any live process.
        lock.write_text("999999999\n")
        journal = EpochJournal.open_existing(path)
        journal.append({"epoch": 0})
        journal.close()
        assert not lock.exists()

    def test_close_releases_the_lock(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lock = tmp_path / "j.jsonl.lock"
        journal = EpochJournal.create(path, {"run": "x"})
        assert lock.exists()
        assert int(lock.read_text().strip()) == __import__("os").getpid()
        journal.close()
        assert not lock.exists()
        assert journal.closed

    def test_close_is_idempotent(self, tmp_path):
        journal = EpochJournal.create(tmp_path / "j.jsonl", {"run": "x"})
        journal.close()
        journal.close()

    def test_append_after_close_raises(self, tmp_path):
        journal = EpochJournal.create(tmp_path / "j.jsonl", {"run": "x"})
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append({"epoch": 0})

    def test_context_manager_releases(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EpochJournal.create(path, {"run": "x"}) as journal:
            journal.append({"epoch": 0})
        assert not (tmp_path / "j.jsonl.lock").exists()
        assert read_journal(path).last_entry["epoch"] == 0

    def test_same_pid_lock_is_stolen(self, tmp_path):
        """Crash-recovery in-process (tests, single-process restarts):
        our own abandoned lock never blocks us."""
        path = tmp_path / "j.jsonl"
        EpochJournal.create(path, {"run": "x"})  # never closed
        journal = EpochJournal.open_existing(path)
        journal.append({"epoch": 0})
        journal.close()


class TestJournalEntryKinds:
    """Simulator and service journals are distinct record kinds."""

    def test_entries_carry_their_kind(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EpochJournal.create(path, {"x": 1}, entry_kind="batch") as j:
            j.append({"epoch": 0})
        replay = read_journal(path, entry_kind="batch")
        assert [e["epoch"] for e in replay.entries] == [0]

    def test_wrong_kind_truncates_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EpochJournal.create(path, {"x": 1}, entry_kind="batch") as j:
            j.append({"epoch": 0})
        replay = read_journal(path, entry_kind="epoch")
        assert replay.entries == ()
        assert replay.truncated

    def test_simulation_resume_refuses_service_journal(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        EpochJournal.create(
            path, {"service": True}, entry_kind="batch"
        ).close()
        with pytest.raises(ValidationError, match="reservation-service"):
            Simulation.resume(path)

    def test_simulation_resume_refuses_other_planner(
        self, sim_net, sim_jobs, tmp_path
    ):
        # Only the monolithic per-epoch planner exists; a journal is
        # outside input, so a header naming another one is refused.
        original = tmp_path / "sim.jsonl"
        Simulation(sim_net, journal=original).run(sim_jobs)
        replay = read_journal(original)
        assert replay.header["config"]["planner"] == "monolithic"
        header = dict(replay.header)
        header["config"] = dict(header["config"], planner="sharded")
        forged = tmp_path / "sharded.jsonl"
        with EpochJournal.create(forged, header) as journal:
            for entry in replay.entries:
                journal.append(entry)
        with pytest.raises(ValidationError, match="planner 'sharded'"):
            Simulation.resume(forged)


class TestCrashInjector:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValidationError):
            CrashInjector("mid-sandwich")

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValidationError):
            CrashInjector("pre-solve", epoch=-1)

    def test_one_shot(self):
        injector = CrashInjector("pre-solve", epoch=2)
        assert not injector.should_fire("pre-solve", 1)
        assert not injector.should_fire("post-solve", 2)
        assert injector.should_fire("pre-solve", 2)
        with pytest.raises(SimulatedCrash) as exc:
            injector.fire("pre-solve", 2)
        assert exc.value.point == "pre-solve"
        assert exc.value.epoch == 2
        # Once fired, a resumed run sails past the same point.
        assert not injector.should_fire("pre-solve", 2)


# ----------------------------------------------------------------------
# Simulation wiring validation
# ----------------------------------------------------------------------
class TestSimulationJournalValidation:
    def test_journal_with_keep_schedules_rejected(self, sim_net, tmp_path):
        with pytest.raises(ValidationError, match="keep_schedules"):
            Simulation(
                sim_net, journal=tmp_path / "j.jsonl", keep_schedules=True
            )

    def test_journal_with_capacity_profile_rejected(self, sim_net, tmp_path):
        profile = CapacityProfile.constant(sim_net, TimeGrid.uniform(4))
        with pytest.raises(ValidationError, match="capacity_profile"):
            Simulation(
                sim_net,
                journal=tmp_path / "j.jsonl",
                capacity_profile=profile,
            )

    def test_mid_journal_crash_needs_a_journal(self, sim_net):
        with pytest.raises(ValidationError, match="mid-journal"):
            Simulation(sim_net, crash_injector=CrashInjector("mid-journal"))


# ----------------------------------------------------------------------
# The crash matrix: kill at every point, resume, expect identical runs
# ----------------------------------------------------------------------
class TestCrashMatrix:
    @pytest.fixture(scope="class")
    def baselines(self):
        """Uninterrupted reference runs, one per admission policy."""
        net = topologies.line(3, capacity=2, wavelength_rate=1.0)
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=4.0, start=0.0, end=6.0,
                    arrival=0.0),
                Job(id=1, source=2, dest=0, size=3.0, start=0.0, end=5.0,
                    arrival=0.0),
                Job(id=2, source=0, dest=2, size=2.0, start=2.0, end=8.0,
                    arrival=2.0),
            ]
        )
        out = {}
        for policy in ("reject", "reduce", "extend"):
            result = Simulation(net, policy=policy).run(jobs)
            out[policy] = _records_and_event_types(result)
        return net, jobs, out

    @pytest.mark.parametrize("policy", ["reject", "reduce", "extend"])
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_resume_matches_uninterrupted_run(
        self, tmp_path, baselines, point, policy
    ):
        net, jobs, expected = baselines
        path = tmp_path / "run.jsonl"
        sim = Simulation(
            net,
            policy=policy,
            journal=path,
            crash_injector=CrashInjector(point, epoch=1),
        )
        with pytest.raises(SimulatedCrash):
            sim.run(jobs)
        resumed = Simulation.resume(path)
        records, event_types = _records_and_event_types(resumed)
        want_records, want_events = expected[policy]
        assert records == want_records
        assert event_types == want_events

    def test_journaled_run_matches_plain_run(self, tmp_path, baselines):
        net, jobs, expected = baselines
        result = Simulation(
            net, policy="reduce", journal=tmp_path / "run.jsonl"
        ).run(jobs)
        assert _records_and_event_types(result) == expected["reduce"]

    def test_resume_after_clean_finish_is_identity(self, tmp_path, baselines):
        """Resuming a journal whose run completed replays it verbatim."""
        net, jobs, expected = baselines
        path = tmp_path / "run.jsonl"
        Simulation(net, policy="reduce", journal=path).run(jobs)
        resumed = Simulation.resume(path)
        assert _records_and_event_types(resumed) == expected["reduce"]

    def test_resume_counts_telemetry(self, tmp_path, baselines):
        net, jobs, _ = baselines
        path = tmp_path / "run.jsonl"
        sim = Simulation(
            net,
            journal=path,
            crash_injector=CrashInjector("post-solve", epoch=0),
        )
        with pytest.raises(SimulatedCrash):
            sim.run(jobs)
        with Telemetry() as telemetry:
            Simulation.resume(path)
        assert telemetry.counters.get("journal_resumes") == 1
        assert telemetry.counters.get("journal_commits", 0) >= 1


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_exhausted_budget_degrades_to_greedy_baseline(
        self, sim_net, sim_jobs
    ):
        with Telemetry() as telemetry:
            result = Scheduler(sim_net).schedule(
                sim_jobs, budget=SolveBudget(1e-9)
            )
        assert result.degraded == "greedy_baseline"
        assert result.degraded_reason
        assert telemetry.counters["degraded_solves"] == 1
        assert telemetry.counters["degraded_solves_greedy_baseline"] == 1
        # The degraded assignment is still feasible end to end.
        report = verify_assignment(result.structure, result.x)
        assert report.ok, report.render()

    def test_stage2_death_degrades_to_lpd_greedy(
        self, sim_net, sim_jobs, monkeypatch
    ):
        import repro.core.scheduler as scheduler_mod

        def dead_stage2(*args, **kwargs):
            raise BudgetExceededError("stage2 out of time", where="stage2")

        monkeypatch.setattr(scheduler_mod, "solve_stage2_lp", dead_stage2)
        result = Scheduler(sim_net).schedule(
            sim_jobs, budget=SolveBudget(60.0)
        )
        assert result.degraded == "lpd_greedy"
        report = verify_assignment(result.structure, result.x)
        assert report.ok, report.render()

    def test_generous_budget_changes_nothing(self, sim_net, sim_jobs):
        plain = Scheduler(sim_net).schedule(sim_jobs)
        budgeted = Scheduler(sim_net).schedule(
            sim_jobs, budget=SolveBudget(300.0)
        )
        assert budgeted.degraded is None
        assert budgeted.zstar == pytest.approx(plain.zstar)
        assert (budgeted.x == plain.x).all()

    @pytest.mark.parametrize("policy", ["reject", "reduce", "extend"])
    def test_tiny_budget_still_commits_every_epoch(
        self, sim_net, sim_jobs, policy
    ):
        """ISSUE acceptance: wall_time_s=0.01 never raises; epochs stay
        feasible (verify_epochs raises on any checker violation)."""
        with Telemetry() as telemetry:
            result = Simulation(
                sim_net,
                policy=policy,
                solve_budget=SolveBudget(0.01),
                verify_epochs=True,
            ).run(sim_jobs)
        assert result.records  # ran to completion
        assert telemetry.counters.get("schedule_passes", 0) >= 1

    def test_microscopic_budget_forces_full_degradation(
        self, sim_net, sim_jobs
    ):
        with Telemetry() as telemetry:
            result = Simulation(
                sim_net,
                solve_budget=SolveBudget(1e-9),
                verify_epochs=True,
            ).run(sim_jobs)
        assert result.records
        assert telemetry.counters.get("degraded_solves", 0) >= 1
        from repro.sim import DegradedSolve

        degraded_events = [
            e for e in result.events if isinstance(e, DegradedSolve)
        ]
        assert degraded_events
        assert all(
            e.level in ("lpd_greedy", "greedy_baseline")
            for e in degraded_events
        )
