"""Unit tests for the shared epoch-control kernel and policy surface.

Covers the kernel primitives (`window_closed`, the fault cursor,
`used_edges`, action validation, budget splits), the reconciled
`_expire_stale` semantics of each caller (the satellite task: the sim
expires against the RET-extended *effective* deadline with a final
sweep; the service against the *committed* end, no sweep), the three
baseline policies, the gym-style :class:`SchedulingEnv`, and the
checker-clean comparison harness behind ``repro policy compare``.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from repro import Job, JobSet, Network, Simulation, ValidationError
from repro.control import (
    AlphaBanditPolicy,
    ControlPolicy,
    EpochAction,
    EpochKernel,
    EpochObservation,
    EpochOutcome,
    FixedPolicy,
    LoadReactivePathsPolicy,
    POLICY_NAMES,
    SchedulingEnv,
    base_action_for,
    compare_policies,
    make_policy,
    window_closed,
)
from repro.control.kernel import advance_fault_cursor
from repro.faults import FaultSchedule, LinkDown, LinkUp, WavelengthDegrade
from repro.network import topologies
from repro.service import ReservationService
from repro.sim import JobExpired
from repro.sim.simulator import JobRecord
from repro.verify.fuzz import make_scenario


def _line2():
    net = Network(wavelength_rate=1.0, name="line2")
    net.add_link_pair(0, 1, 1)
    return net


def _obs(base: EpochAction, backlog: int = 0) -> EpochObservation:
    return EpochObservation(
        now=0.0, epoch=0, backlog=backlog, total_remaining=float(backlog),
        queue_depth=0, delivered_volume=0.0, fault_idx=0,
        failed_edges=frozenset(), overloaded=None, last_zstar=None,
        budget_wall_s=None, base=base,
    )


class TestEpochAction:
    def test_validate_returns_self_when_legal(self):
        action = base_action_for(alpha=0.1, k_paths=4)
        assert action.validate() is action

    @pytest.mark.parametrize("bad", [
        {"alpha": -0.1}, {"alpha": 1.5},
        {"alpha": 0.8},            # above alpha_max=0.5
        {"alpha_max": 1.2},
        {"k_paths": 0},
        {"admission_policy": "panic"},
        {"rejection": "random"},
        {"budget_scale": 0.0},
    ])
    def test_validate_rejects_out_of_range(self, bad):
        action = replace(base_action_for(alpha=0.1, k_paths=4), **bad)
        with pytest.raises(ValidationError):
            action.validate()

    def test_base_action_matches_scheduler_defaults(self):
        """The base action mirrors Scheduler's default escalation knobs."""
        action = base_action_for(alpha=0.1, k_paths=4)
        assert action.alpha_step == 0.1
        assert action.alpha_max == 0.5
        assert action.budget_scale == 1.0


class TestWindowClosed:
    def test_open_window(self):
        assert not window_closed(0.0, 5.0, now=3.0, slice_length=1.0)

    def test_closed_window(self):
        assert window_closed(0.0, 5.0, now=4.5, slice_length=1.0)

    def test_exactly_one_slice_left_is_open(self):
        assert not window_closed(0.0, 5.0, now=4.0, slice_length=1.0)

    def test_future_start_counts_from_start(self):
        # Window [10, 11] holds one slice regardless of how early now is.
        assert not window_closed(10.0, 11.0, now=0.0, slice_length=1.0)
        assert window_closed(10.0, 10.5, now=0.0, slice_length=1.0)


class TestFaultCursor:
    def test_advances_past_due_events_only(self):
        net = topologies.ring(4)
        sched = FaultSchedule(net, [
            LinkDown(1.0, 0, 1), LinkUp(3.0, 0, 1), LinkDown(5.0, 1, 2),
        ])
        idx, det = advance_fault_cursor(sched, 0, now=3.5)
        assert idx == 2
        assert len(det.events) == 2
        assert det.affected  # the LinkDown's edges

    def test_link_up_alone_affects_nothing(self):
        net = topologies.ring(4)
        sched = FaultSchedule(net, [LinkDown(1.0, 0, 1), LinkUp(2.0, 0, 1)])
        idx, det = advance_fault_cursor(sched, 1, now=2.5)
        assert idx == 2
        assert det.affected == frozenset()

    def test_degrade_counts_as_affected(self):
        net = topologies.ring(4)
        sched = FaultSchedule(net, [WavelengthDegrade(1.0, 0, 1, 0)])
        _idx, det = advance_fault_cursor(sched, 0, now=1.5)
        assert det.affected


class TestKernel:
    def _kernel(self, policy=None, **kw):
        return EpochKernel(
            tau=1.0, slice_length=1.0,
            base_action=base_action_for(alpha=0.1, k_paths=4),
            policy=policy, **kw,
        )

    def test_no_policy_means_no_observation(self):
        kernel = self._kernel()
        assert not kernel.wants_observation
        assert kernel.observe(backlog=3, total_remaining=1.0,
                              queue_depth=0) is None
        assert kernel.decide(None) is kernel.base_action

    def test_fixed_policy_decides_base(self):
        kernel = self._kernel(policy=FixedPolicy())
        obs = kernel.observe(backlog=3, total_remaining=1.0, queue_depth=0)
        assert obs is not None and obs.base == kernel.base_action
        assert kernel.decide(obs) == kernel.base_action

    def test_advance_steps_tau(self):
        kernel = self._kernel()
        kernel.advance()
        kernel.advance()
        assert kernel.now == pytest.approx(2.0)
        assert kernel.epoch == 2

    def test_advance_to_jumps(self):
        kernel = self._kernel()
        kernel.advance(to=5.0)
        assert kernel.now == pytest.approx(5.0)
        assert kernel.epoch == 5

    def test_budget_for_identity_scale_returns_configured(self):
        from repro.lp.solver import SolveBudget

        budget = SolveBudget(2.0)
        kernel = self._kernel(solve_budget=budget)
        assert kernel.budget_for(kernel.base_action) is budget

    def test_budget_for_scaled_is_fresh_and_started(self):
        from repro.lp.solver import SolveBudget

        budget = SolveBudget(2.0)
        kernel = self._kernel(solve_budget=budget)
        scaled = kernel.budget_for(replace(kernel.base_action,
                                           budget_scale=1.5))
        assert scaled is not budget
        assert scaled.wall_time_s == pytest.approx(3.0)
        assert scaled.remaining() > 0.0  # restarted, usable immediately

    def test_budget_for_without_budget_is_none(self):
        kernel = self._kernel()
        scaled = kernel.budget_for(replace(kernel.base_action,
                                           budget_scale=2.0))
        assert scaled is None

    def test_feedback_accumulates_delivered(self):
        kernel = self._kernel()
        outcome = EpochOutcome(epoch=0, delivered=2.5, completed=1)
        kernel.feedback(None, kernel.base_action, outcome)
        kernel.feedback(None, kernel.base_action,
                        EpochOutcome(epoch=1, delivered=1.5))
        assert kernel.delivered_volume == pytest.approx(4.0)


class TestExpireStaleSemantics:
    """Pin the reconciled per-caller expiry semantics (satellite task)."""

    def test_sim_expires_on_effective_end_not_committed_end(self):
        """A RET-extended record lives past its original deadline."""
        sim = Simulation(_line2(), policy="extend")
        job = Job(id="j", source=0, dest=1, size=1.0, start=0.0, end=2.0)
        rec = JobRecord(job, effective_end=6.0, remaining=0.5,
                        status="active")
        records, events = {"j": rec}, []
        sim._expire_stale(records, now=3.0, events=events)  # past job.end
        assert rec.status == "active"  # effective window still open
        sim._expire_stale(records, now=5.5, events=events)
        assert rec.status == "expired"
        assert isinstance(events[0], JobExpired)

    def test_sim_final_sweep_expires_everything_active(self):
        sim = Simulation(_line2())
        job = Job(id="j", source=0, dest=1, size=1.0, start=0.0, end=100.0)
        rec = JobRecord(job, effective_end=100.0, remaining=1.0,
                        status="active")
        sim._expire_stale({"j": rec}, now=1.0, events=[], final=True)
        assert rec.status == "expired"

    def test_service_expires_on_committed_end(self):
        """The service has no effective-end: committed end is the law."""
        from repro.service.book import Reservation

        service = ReservationService(_line2())
        job = Job(id="j", source=0, dest=1, size=4.0, start=0.0, end=2.0)
        service.book.reservations["j"] = Reservation(job=job, remaining=2.0)
        transitions: list = []
        service._expire_stale(1.0, transitions)
        assert service.book.reservations["j"].status == "accepted"
        service._expire_stale(1.5, transitions)
        assert service.book.reservations["j"].status == "expired"
        assert transitions == [{"id": "j", "status": "expired"}]

    def test_service_has_no_final_sweep_parameter(self):
        import inspect

        params = inspect.signature(
            ReservationService._expire_stale).parameters
        assert "final" not in params


class TestDeliveryToleranceSemantics:
    """Pin each driver's delivery tolerance: the simulator ignores
    realized volume up to 1e-6, the service counts anything above 1e-9.

    At a wavelength rate of 1e-7 one wavelength-slice carries 1e-7
    units, which sits between the two tolerances.
    """

    RATE = 1e-7

    def _net(self):
        net = Network(wavelength_rate=self.RATE, name="line2-slow")
        net.add_link_pair(0, 1, 1)
        return net

    def _job(self):
        return Job(id="j", source=0, dest=1, size=3 * self.RATE,
                   start=0.0, end=5.0)

    def test_sim_ignores_volume_below_its_tolerance(self):
        result = Simulation(self._net()).run(JobSet([self._job()]))
        rec = result.records[0]
        assert rec.status == "expired"
        assert rec.remaining == 3 * self.RATE
        assert result.delivered_volume == 0.0

    def test_service_counts_volume_above_its_tolerance(self):
        import asyncio

        job = self._job()
        service = ReservationService(self._net())
        service.submit({"id": job.id, "source": job.source,
                        "dest": job.dest, "size": job.size,
                        "start": job.start, "end": job.end})
        for _ in range(5):
            asyncio.run(service.tick())
        res = service.book.reservations["j"]
        assert res.status == "completed"
        assert res.remaining == 0.0
        assert service._kernel.delivered_volume == pytest.approx(
            3 * self.RATE, rel=1e-9)


class TestPolicies:
    def test_fixed_is_journal_safe_identity(self):
        pol = FixedPolicy()
        assert pol.journal_safe
        base = base_action_for(alpha=0.1, k_paths=4)
        assert pol.decide(_obs(base)) == base

    def test_base_policy_defers(self):
        assert ControlPolicy().decide(_obs(base_action_for(
            alpha=0.1, k_paths=4))) is None
        assert not ControlPolicy().journal_safe

    def test_bandit_is_deterministic_per_seed(self):
        base = base_action_for(alpha=0.1, k_paths=4)

        def trajectory(seed):
            pol = AlphaBanditPolicy(seed=seed)
            picks = []
            for i in range(10):
                action = pol.decide(_obs(base))
                picks.append(action.alpha)
                pol.feedback(_obs(base), action,
                             EpochOutcome(epoch=i, delivered=float(i)))
            return picks

        assert trajectory(7) == trajectory(7)
        assert trajectory(7) != trajectory(8) or True  # seeds may collide

    def test_bandit_actions_always_validate(self):
        pol = AlphaBanditPolicy(seed=3)
        base = base_action_for(alpha=0.1, k_paths=4)
        for i in range(20):
            action = pol.decide(_obs(base))
            assert action.validate() is action
            pol.feedback(_obs(base), action, EpochOutcome(epoch=i))

    def test_bandit_rejects_bad_arms(self):
        with pytest.raises(ValidationError):
            AlphaBanditPolicy(arms=(0.1, 1.5))
        with pytest.raises(ValidationError):
            AlphaBanditPolicy(arms=())
        with pytest.raises(ValidationError):
            AlphaBanditPolicy(epsilon=2.0)

    def test_load_reactive_widens_and_narrows(self):
        pol = LoadReactivePathsPolicy(low_backlog=2, high_backlog=6)
        base = base_action_for(alpha=0.1, k_paths=4)
        deep = pol.decide(_obs(base, backlog=10))
        assert deep.k_paths == 6 and deep.budget_scale == pytest.approx(1.5)
        shallow = pol.decide(_obs(base, backlog=1))
        assert shallow.k_paths == 3 and shallow.budget_scale == 1.0
        assert pol.decide(_obs(base, backlog=4)) == base

    def test_load_reactive_never_drops_below_one_path(self):
        pol = LoadReactivePathsPolicy(low_backlog=2, high_backlog=6)
        base = base_action_for(alpha=0.1, k_paths=1)
        assert pol.decide(_obs(base, backlog=0)).k_paths == 1

    def test_make_policy_names(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name
        with pytest.raises(ValidationError):
            make_policy("nonsense")


class TestJournalSafetyGate:
    def test_sim_rejects_adaptive_policy_with_journal(self, tmp_path):
        with pytest.raises(ValidationError, match="journal-safe"):
            Simulation(_line2(), journal=tmp_path / "j.jsonl",
                       control_policy=AlphaBanditPolicy())

    def test_sim_accepts_fixed_policy_with_journal(self, tmp_path):
        Simulation(_line2(), journal=tmp_path / "j.jsonl",
                   control_policy=FixedPolicy())

    def test_service_rejects_adaptive_policy_with_journal(self, tmp_path):
        with pytest.raises(ValidationError, match="journal-safe"):
            ReservationService(_line2(), journal=str(tmp_path / "j.jsonl"),
                               control_policy=LoadReactivePathsPolicy())


class TestSchedulingEnv:
    @pytest.fixture
    def scenario(self):
        return make_scenario(2)

    def test_episode_with_none_actions_matches_plain_run(self, scenario):
        env = SchedulingEnv(scenario.network, scenario.jobs,
                            horizon=scenario.grid.end * 3.0, k_paths=3,
                            fault_schedule=scenario.fault_schedule)
        obs = env.reset()
        while obs is not None:
            obs, _reward, _done, _info = env.step(None)
        assert env.done
        plain = Simulation(
            scenario.network, k_paths=3,
            fault_schedule=scenario.fault_schedule,
        ).run(scenario.jobs, horizon=scenario.grid.end * 3.0)
        assert ([r.status for r in env.result.records]
                == [r.status for r in plain.records])
        assert env.result.delivered_volume == pytest.approx(
            plain.delivered_volume)

    def test_rewards_sum_to_delivered_plus_deadline_bonus(self, scenario):
        env = SchedulingEnv(scenario.network, scenario.jobs,
                            horizon=scenario.grid.end * 3.0, k_paths=3,
                            deadline_weight=2.0)
        obs = env.reset()
        total = 0.0
        while obs is not None:
            obs, reward, _done, _info = env.step(None)
            total += reward
        expected = env.result.delivered_volume
        if not math.isnan(env.result.deadline_rate):
            expected += 2.0 * env.result.deadline_rate
        assert total == pytest.approx(expected)

    def test_explicit_actions_flow_through(self, scenario):
        env = SchedulingEnv(scenario.network, scenario.jobs,
                            horizon=scenario.grid.end * 3.0, k_paths=3)
        obs = env.reset()
        saw_decision = obs is not None
        while obs is not None:
            action = replace(env.base_action, alpha=0.2)
            obs, _r, _d, info = env.step(action)
            assert isinstance(info["outcome"], EpochOutcome)
        assert saw_decision
        assert env.result is not None

    def test_invalid_action_raises(self, scenario):
        env = SchedulingEnv(scenario.network, scenario.jobs,
                            horizon=scenario.grid.end * 3.0, k_paths=3)
        obs = env.reset()
        if obs is None:
            pytest.skip("scenario schedules nothing")
        with pytest.raises(ValidationError):
            env.step(replace(env.base_action, alpha=-1.0))

    def test_step_after_done_raises(self, scenario):
        env = SchedulingEnv(scenario.network, scenario.jobs,
                            horizon=scenario.grid.end * 3.0, k_paths=3)
        obs = env.reset()
        while obs is not None:
            obs, *_ = env.step(None)
        with pytest.raises(ValidationError):
            env.step(None)

    def test_reset_restarts_identically(self, scenario):
        env = SchedulingEnv(scenario.network, scenario.jobs,
                            horizon=scenario.grid.end * 3.0, k_paths=3)
        env.reset()
        while not env.done:
            env.step(None)
        first = env.result.delivered_volume
        env.reset()
        while not env.done:
            env.step(None)
        assert env.result.delivered_volume == pytest.approx(first)

    def test_rejects_control_policy_kwarg(self, scenario):
        with pytest.raises(ValidationError, match="policy"):
            SchedulingEnv(scenario.network, scenario.jobs,
                          control_policy=FixedPolicy())


class TestCompareHarness:
    def test_three_policies_two_seeds(self):
        cmp = compare_policies(("fixed", "bandit", "load-reactive"), seeds=2)
        assert len(cmp.runs) == 6
        agg = cmp.aggregate()
        assert set(agg) == {"fixed", "bandit", "load-reactive"}
        for stats in agg.values():
            assert stats["runs"] == 2
            assert stats["delivered_total"] >= 0.0
        # verify_epochs=True by default: every run was checker-verified.
        assert all(r.epochs_verified >= 1 for r in cmp.runs)

    def test_report_roundtrips_through_json(self):
        cmp = compare_policies(("fixed",), seeds=(1,))
        blob = json.loads(json.dumps(cmp.to_dict()))
        assert blob["runs"][0]["policy"] == "fixed"
        assert "fixed" in blob["aggregate"]

    def test_render_mentions_every_policy(self):
        cmp = compare_policies(("fixed", "bandit"), seeds=1)
        text = cmp.render()
        assert "fixed" in text and "bandit" in text

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValidationError):
            compare_policies((), seeds=1)
        with pytest.raises(ValidationError):
            compare_policies(("fixed",), seeds=0)


class TestPolicyCLI:
    def test_compare_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        rc = main(["policy", "compare", "--policies", "fixed,load-reactive",
                   "--seeds", "1", "-o", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert {r["policy"] for r in report["runs"]} == {
            "fixed", "load-reactive"}
        assert "checker-verified" in capsys.readouterr().out

    def test_compare_rejects_unknown_policy(self, capsys):
        from repro.cli import main

        assert main(["policy", "compare", "--policies", "nope"]) == 1
        assert "unknown policy" in capsys.readouterr().err

    def test_simulate_control_policy_flag(self, tmp_path, capsys):
        from repro import serialization
        from repro.cli import main

        sc = make_scenario(1, allow_faults=False)
        net_path = tmp_path / "net.json"
        jobs_path = tmp_path / "jobs.json"
        serialization.save_json(
            serialization.network_to_dict(sc.network), net_path)
        serialization.save_json(
            serialization.jobs_to_dict(sc.jobs), jobs_path)
        rc = main(["simulate", "--network", str(net_path),
                   "--jobs", str(jobs_path), "--control-policy", "bandit"])
        assert rc == 0

    def test_simulate_adaptive_policy_plus_journal_errors(
            self, tmp_path, capsys):
        from repro import serialization
        from repro.cli import main

        sc = make_scenario(1, allow_faults=False)
        net_path = tmp_path / "net.json"
        jobs_path = tmp_path / "jobs.json"
        serialization.save_json(
            serialization.network_to_dict(sc.network), net_path)
        serialization.save_json(
            serialization.jobs_to_dict(sc.jobs), jobs_path)
        rc = main(["simulate", "--network", str(net_path),
                   "--jobs", str(jobs_path), "--control-policy", "bandit",
                   "--journal", str(tmp_path / "j.jsonl")])
        assert rc == 1
        assert "journal-safe" in capsys.readouterr().err
