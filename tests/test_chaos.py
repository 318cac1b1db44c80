"""The composed chaos engine: schedules, injectors, monitors, runner.

Tentpole coverage: a seeded :class:`ChaosSchedule` composes every
failure mode the repository can inject (link faults, crashes, journal
write faults, solver-backend faults, fleet worker faults) into one
deterministic timeline; :func:`run_chaos` drives it against the
simulator, the reservation service, and the fleet with every invariant
monitor armed.  The acceptance cases live in
:class:`TestComposedCampaign`: a multi-layer timeline completes on all
three targets with zero violations, and a ``wrong``-mode backend fault
is provably intercepted by ``verify_schedule`` before anything commits.
"""

from __future__ import annotations

import errno
import json

import pytest

from repro import (
    Job,
    JobSet,
    ScheduleError,
    Scheduler,
    Simulation,
    TimeGrid,
    ValidationError,
)
from repro.chaos import (
    BackendFault,
    ChaosSchedule,
    CrashFault,
    JournalFault,
    JournalFaultInjector,
    WorkerFault,
    generate_chaos,
    install_faulty_backend,
    parse_chaos_spec,
    run_chaos,
)
from repro.engine.backend import get_backend
from repro.errors import JournalWriteError
from repro.lp.solver import DEFAULT_RESILIENCE, SolveResilience
from repro.network import topologies
from repro.parallel.fleet import TaskSpec, run_fleet
from repro.recovery.journal import EpochJournal, read_journal
from repro.verify.fuzz import make_scenario

NO_PERTURB = SolveResilience(perturbation=0.0)


@pytest.fixture
def net():
    return topologies.line(3, capacity=2)


@pytest.fixture
def jobs():
    return JobSet(
        [
            Job(id="a", source=0, dest=2, size=2.0, start=0.0, end=4.0),
            Job(id="b", source=2, dest=0, size=1.0, start=0.0, end=4.0),
        ]
    )


# ----------------------------------------------------------------------
# Schedule generation and the spec grammar
# ----------------------------------------------------------------------
class TestChaosSchedule:
    def test_same_seed_same_timeline(self, net):
        first = generate_chaos(7, net, 12.0)
        second = generate_chaos(7, net, 12.0)
        assert first.to_dict() == second.to_dict()
        assert first.num_faults > 0

    def test_every_layer_populated(self, net):
        chaos = generate_chaos(3, net, 12.0)
        assert chaos.crashes
        assert chaos.journal_faults
        assert chaos.backend_faults
        assert chaos.worker_faults
        modes = {f.mode for f in chaos.worker_faults}
        assert modes == {"kill", "hang"}

    def test_generated_backend_faults_are_absorbable(self, net):
        # `wrong` fail-stops at the verify gate, so a generated
        # timeline never uses it — it is opt-in via the spec grammar —
        # and faulted call indices are even so retries cannot cascade
        # into the fallback backend.
        for seed in range(20):
            chaos = generate_chaos(seed, net, 12.0)
            for fault in chaos.backend_faults:
                assert fault.mode in ("raise", "timeout")
                assert fault.call % 2 == 0

    def test_crashes_for_filters_and_orders(self):
        chaos = ChaosSchedule(
            crashes=(
                CrashFault("pre-commit", 3),
                CrashFault("pre-batch", 0),
                CrashFault("pre-solve", 1),
            )
        )
        sim_points = ("pre-solve", "post-solve", "pre-commit",
                      "post-commit", "mid-journal")
        assert chaos.crashes_for(sim_points) == [
            CrashFault("pre-solve", 1),
            CrashFault("pre-commit", 3),
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: CrashFault("pre-lunch", 0),
            lambda: CrashFault("pre-commit", -1),
            lambda: JournalFault("full", 0),
            lambda: JournalFault("enospc", -2),
            lambda: BackendFault("explode", 0),
            lambda: WorkerFault("nap", 0),
        ],
    )
    def test_fault_validation(self, bad):
        with pytest.raises(ValidationError):
            bad()


class TestChaosSpecGrammar:
    def test_inline_entries(self, net):
        chaos = parse_chaos_spec(
            "down:0-1@2.0; crash:pre-commit@1; journal:enospc@0; "
            "backend:wrong@2; worker:hang@3",
            net,
        )
        assert len(chaos.link_events) == 1
        assert chaos.crashes == (CrashFault("pre-commit", 1),)
        assert chaos.journal_faults == (JournalFault("enospc", 0),)
        assert chaos.backend_faults == (BackendFault("wrong", 2),)
        assert chaos.worker_faults == (WorkerFault("hang", 3),)

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "crash:pre-commit",          # missing @epoch
            "journal:enospc@1.5",        # non-integer index
            "teleport:somewhere@1",      # unknown kind
            "backend:wrong@-1",          # negative index
        ],
    )
    def test_bad_specs_rejected(self, net, spec):
        with pytest.raises(ValidationError):
            parse_chaos_spec(spec, net)

    def test_random_spec_needs_horizon(self, net):
        with pytest.raises(ValidationError, match="horizon"):
            parse_chaos_spec("random:", net, seed=1)
        with pytest.raises(ValidationError, match="unknown random"):
            parse_chaos_spec("random:typo=1", net, seed=1, horizon=10.0)

    def test_random_spec_matches_generate(self, net):
        parsed = parse_chaos_spec("random:", net, seed=5, horizon=12.0)
        generated = generate_chaos(5, net, 12.0)
        expect = generated.to_dict()
        expect["spec"] = "random:"
        assert parsed.to_dict() == expect

    def test_json_file_round_trip(self, net, tmp_path):
        chaos = generate_chaos(4, net, 12.0)
        payload = chaos.to_dict()
        del payload["seed"], payload["spec"]
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(payload))
        parsed = parse_chaos_spec(str(path), net, seed=4)
        body = parsed.to_dict()
        assert body["crashes"] == chaos.to_dict()["crashes"]
        assert body["journal"] == chaos.to_dict()["journal"]
        assert body["backend"] == chaos.to_dict()["backend"]
        assert body["workers"] == chaos.to_dict()["workers"]
        assert body["link_events"] == chaos.to_dict()["link_events"]

    def test_json_file_unknown_key_rejected(self, net, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({"crashes": [], "typo": []}))
        with pytest.raises(ValidationError, match="unknown key"):
            parse_chaos_spec(str(path), net)


# ----------------------------------------------------------------------
# The faulty solver backend
# ----------------------------------------------------------------------
class TestFaultyBackend:
    def test_raise_and_timeout_absorbed_by_resilience(self, net, jobs):
        grid = TimeGrid.uniform(4)
        clean = Scheduler(net).schedule(jobs, grid)
        faults = (BackendFault("raise", 0), BackendFault("timeout", 2))
        with install_faulty_backend(faults) as backend:
            result = Scheduler(net, resilience=NO_PERTURB).schedule(
                jobs, grid
            )
        assert backend.injected == 2
        assert backend.calls > 2
        # Zero-perturbation retries heal to the identical solution.
        assert result.stage1.zstar == pytest.approx(clean.stage1.zstar)
        assert result.x == pytest.approx(clean.x)

    def test_wrong_solution_intercepted_before_commit(self, net, jobs):
        with install_faulty_backend((BackendFault("wrong", 0),)):
            scheduler = Scheduler(net, verify_solutions=True)
            with pytest.raises(
                ScheduleError, match="rejected by verify_schedule"
            ):
                scheduler.schedule(jobs, TimeGrid.uniform(4))

    def test_wrong_solution_never_reaches_the_journal(
        self, net, jobs, tmp_path
    ):
        # Acceptance: the interception happens before commit.  Run the
        # full simulator with a journal armed: the ScheduleError must
        # propagate and the journal must hold zero epoch entries —
        # nothing downstream ever saw the corrupt solution.
        path = tmp_path / "wrong.journal"
        with install_faulty_backend((BackendFault("wrong", 0),)):
            sim = Simulation(net, verify_solutions=True, journal=path)
            with pytest.raises(
                ScheduleError, match="rejected by verify_schedule"
            ):
                sim.run(jobs, horizon=4.0)
        replay = read_journal(path)
        assert len(replay.entries) == 0

    @pytest.mark.parametrize("rejection", ["prefix", "greedy"])
    def test_reject_admission_probe_retries_under_resilience(
        self, rejection
    ):
        # The reject policy's admission probes run through the run's
        # engine, which must carry the run's resilience: one transient
        # backend failure costs a retry, not the run.
        scenario = make_scenario(1, allow_faults=False)

        def run():
            return Simulation(
                scenario.network, policy="reject", rejection=rejection,
                resilience=DEFAULT_RESILIENCE,
            ).run(scenario.jobs)

        clean = run()
        assert clean.num_rejected > 0  # the probes decide something
        with install_faulty_backend((BackendFault("raise", 0),)) as backend:
            result = run()
        assert backend.injected == 1
        assert ([r.status for r in result.records]
                == [r.status for r in clean.records])

    def test_registry_restored_after_context(self):
        original = get_backend("highs")
        with install_faulty_backend((BackendFault("raise", 0),)):
            assert get_backend("highs") is not original
        assert get_backend("highs") is original


# ----------------------------------------------------------------------
# Journal write faults
# ----------------------------------------------------------------------
class TestJournalFaultInjector:
    @pytest.mark.parametrize("mode", ["enospc", "eio", "torn"])
    def test_failed_append_is_typed_and_prior_state_intact(
        self, tmp_path, mode
    ):
        path = tmp_path / "chaos.journal"
        journal = EpochJournal.create(path, {"run": 1})
        journal.fault_injector = JournalFaultInjector(
            (JournalFault(mode, 1),)
        )
        journal.append({"epoch": 0})
        with pytest.raises(JournalWriteError) as excinfo:
            journal.append({"epoch": 1})
        assert excinfo.value.path == str(path)
        # Fail-stop contract: everything previously committed reads
        # back; at worst the torn tail is dropped.
        replay = read_journal(path)
        assert replay.header["run"] == 1
        assert [e["epoch"] for e in replay.entries] == [0]
        # The journal heals on the next successful append.
        journal.append({"epoch": 1})
        journal.close()
        replay = read_journal(path)
        assert [e["epoch"] for e in replay.entries] == [0, 1]

    def test_enospc_and_eio_raise_before_any_byte(self, tmp_path):
        injector = JournalFaultInjector(
            (JournalFault("enospc", 0), JournalFault("eio", 1))
        )
        with pytest.raises(OSError) as excinfo:
            injector(tmp_path / "j", "header\nentry")
        assert excinfo.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as excinfo:
            injector(tmp_path / "j", "header\nentry")
        assert excinfo.value.errno == errno.EIO
        assert injector.exhausted

    def test_torn_header_degrades_to_eio(self, tmp_path):
        # Tearing the only line would make the file unreadable, which
        # is not what a torn *append* means.
        injector = JournalFaultInjector((JournalFault("torn", 0),))
        with pytest.raises(OSError) as excinfo:
            injector(tmp_path / "j", "just-a-header")
        assert excinfo.value.errno == errno.EIO

    def test_torn_append_cuts_only_the_new_line(self, tmp_path):
        injector = JournalFaultInjector((JournalFault("torn", 0),))
        content = injector(tmp_path / "j", "committed-1\ncommitted-2\nfresh")
        lines = content.splitlines()
        assert lines[:2] == ["committed-1", "committed-2"]
        assert lines[2] == "fr"


# ----------------------------------------------------------------------
# Fleet worker faults
# ----------------------------------------------------------------------
class TestFleetChaos:
    def test_hung_worker_reclaimed_and_reported(self):
        specs = [
            TaskSpec("chaos_probe", {"seed": 1, "mode": None}, label="ok"),
            TaskSpec(
                "chaos_probe",
                {"seed": 2, "mode": "hang", "hang_seconds": 60.0},
                label="hung",
            ),
        ]
        results = run_fleet(specs, jobs=2, retries=1, task_timeout=0.5)
        by_label = {r.label: r for r in results}
        assert by_label["ok"].ok
        assert by_label["ok"].value == {"seed": 1, "mode": None}
        assert not by_label["hung"].ok
        assert by_label["hung"].error_type == "WorkerHung"

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_task_timeout_must_be_positive(self, timeout):
        specs = [TaskSpec("chaos_probe", {"seed": 1}, label="t")]
        with pytest.raises(ValidationError, match="task_timeout"):
            run_fleet(specs, task_timeout=timeout)


# ----------------------------------------------------------------------
# The composed campaign (acceptance)
# ----------------------------------------------------------------------
class TestComposedCampaign:
    def test_generated_timeline_all_targets_zero_violations(self):
        # One seeded timeline composing link faults, process crashes, a
        # journal write fault, backend faults, and both worker fault
        # modes — driven against all three targets with every monitor
        # armed.
        report = run_chaos(seed=1)
        assert report.ok, report.render()
        assert set(report.targets) == {"sim", "serve", "fleet"}
        for layer in ("crashes", "journal", "backend", "workers"):
            assert report.chaos[layer], layer
        fired = (
            report.targets["sim"]["crashes_fired"]
            + report.targets["serve"]["crashes_fired"]
        )
        assert fired >= 1
        assert (
            report.targets["sim"]["backend_faults_fired"]
            + report.targets["serve"]["backend_faults_fired"]
        ) >= 1
        assert report.targets["fleet"]["kill_faults"] == 1
        assert report.targets["fleet"]["hang_faults"] == 1
        assert "chaos seed=1" in report.render()

    def test_wrong_mode_intercepted_through_the_runner(self):
        report = run_chaos(seed=0, spec="backend:wrong@0", targets=("sim",))
        assert report.ok, report.render()
        assert report.targets["sim"]["intercepted"] is True
        assert report.targets["sim"]["backend_faults_fired"] == 1

    def test_unknown_target_rejected(self):
        with pytest.raises(ValidationError, match="unknown chaos target"):
            run_chaos(seed=0, targets=("simulator",))

    def test_report_json_is_canonical(self):
        report = run_chaos(seed=0, targets=("fleet",))
        body = json.loads(report.to_json())
        assert body["seed"] == 0
        assert body["ok"] == report.ok
        assert report.to_json() == json.dumps(
            body, sort_keys=True, separators=(",", ":")
        )


class TestChaosCli:
    def test_cli_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(
            ["chaos", "--seed", "1", "--target", "fleet", "-o", str(out)]
        )
        assert code == 0
        assert "chaos seed=1" in capsys.readouterr().out
        body = json.loads(out.read_text())
        assert body["ok"] is True
        assert set(body["targets"]) == {"fleet"}
