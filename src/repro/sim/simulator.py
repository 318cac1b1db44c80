"""Periodic AC/scheduling simulator (the paper's system framework).

Section II-A: a network controller wakes up every ``tau`` time units,
collects the requests that arrived since the previous epoch, makes an
admission decision, and (re)schedules *all* unfinished jobs over the
future time slices.  Between epochs the network executes the current
schedule; jobs accumulate delivered volume slice by slice.

This module simulates that loop end to end.  Three admission policies
mirror the paper's three overload actions:

* ``"reject"`` — footnote 1: keep previously admitted jobs, admit the
  longest feasible prefix of the new ones, reject the rest.
* ``"reduce"`` — Section II-B: admit everything; in overload, jobs
  simply receive their stage-2 share ``Z_i`` of service (equivalently,
  sizes are renegotiated down).
* ``"extend"`` — Section II-C: admit everything; in overload, stretch
  every end time by the smallest completing ``(1 + b)`` via Algorithm 2.

Rescheduling every epoch is what lets the controller exploit
time-varying, multipath assignments — the framework whose benefit the
paper's earlier companion papers quantified.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from ..control.kernel import (
    EpochKernel,
    EpochOutcome,
    base_action_for,
    simulation_journal_entry,
    simulation_journal_header,
    used_edges as shared_used_edges,
    window_closed,
)
from ..engine.engine import ModelEngine
from ..errors import BudgetExceededError, ScheduleError, ValidationError
from ..faults.events import LinkDown, WavelengthDegrade
from ..faults.schedule import FaultSchedule
from ..lp.solver import DEFAULT_RESILIENCE, SolveBudget, SolveResilience
from ..network.capacity import CapacityProfile
from ..network.graph import Network
from ..obs import NULL_TELEMETRY, Telemetry
from ..recovery.crash import CrashInjector
from ..recovery.journal import EpochJournal, read_journal
from ..timegrid import TimeGrid
from ..workload.jobs import Job, JobSet
from ..core.admission import admit_greedy, admit_max_prefix, by_arrival
from ..core.metrics import mean_link_utilization, per_slice_delivery
from ..core.ret import solve_ret
from ..core.scheduler import Scheduler
from .events import (
    DegradedSolve,
    DeliveryLost,
    Event,
    JobAdmitted,
    JobArrived,
    JobCompleted,
    JobDeadlineExtended,
    JobExpired,
    JobProgress,
    JobRejected,
    JobRescheduled,
    LinkDegraded,
    LinkFailed,
    LinkRestored,
    SchedulingPass,
    event_from_dict,
)

__all__ = ["AdmissionPolicy", "JobRecord", "SimulationResult", "Simulation"]

AdmissionPolicy = Literal["reject", "reduce", "extend"]

_VOLUME_TOL = 1e-6


@dataclass
class JobRecord:
    """Lifecycle bookkeeping for one request.

    Attributes
    ----------
    job:
        The original request (sizes/windows as submitted).
    effective_end:
        Current deadline (grows only under the ``extend`` policy).
    remaining:
        Undelivered volume, in the job's own units.
    status:
        ``pending`` -> ``active`` -> ``completed`` | ``expired``, or
        ``rejected``.
    completion_time:
        When the last byte landed (slice end), if completed.
    """

    job: Job
    effective_end: float
    remaining: float
    status: str = "pending"
    completion_time: float | None = None

    @property
    def met_deadline(self) -> bool:
        """Completed within the *originally requested* end time."""
        return (
            self.status == "completed"
            and self.completion_time is not None
            and self.completion_time <= self.job.end + 1e-9
        )


@dataclass(frozen=True)
class SimulationResult:
    """Final state of a simulation run.

    Attributes
    ----------
    records:
        One :class:`JobRecord` per submitted request, submission order.
    events:
        The full event log, time ordered.
    horizon:
        The simulated time span.
    """

    records: tuple[JobRecord, ...]
    events: tuple[Event, ...]
    horizon: float
    #: Per-epoch (epoch_index, ScheduleResult) pairs; empty unless the
    #: simulation was built with ``keep_schedules=True``.
    schedules: tuple = ()
    #: Per-epoch invariant reports (planned, plus realized when a fault
    #: voided volume); empty unless built with ``verify_epochs=True``.
    verification: tuple = ()

    def by_status(self, status: str) -> list[JobRecord]:
        """Records with the given lifecycle status."""
        return [r for r in self.records if r.status == status]

    @property
    def num_completed(self) -> int:
        return len(self.by_status("completed"))

    @property
    def num_rejected(self) -> int:
        return len(self.by_status("rejected"))

    @property
    def acceptance_rate(self) -> float:
        """Admitted share of all submitted requests."""
        considered = [r for r in self.records if r.status != "pending"]
        if not considered:
            return float("nan")
        return 1.0 - len(self.by_status("rejected")) / len(considered)

    @property
    def completion_rate(self) -> float:
        """Completed share of admitted (non-rejected) requests."""
        admitted = [r for r in self.records if r.status not in ("rejected", "pending")]
        if not admitted:
            return float("nan")
        return self.num_completed / len(admitted)

    @property
    def deadline_rate(self) -> float:
        """Share of admitted requests finished by their *original* deadline."""
        admitted = [r for r in self.records if r.status not in ("rejected", "pending")]
        if not admitted:
            return float("nan")
        return sum(r.met_deadline for r in admitted) / len(admitted)

    @property
    def delivered_volume(self) -> float:
        """Total volume delivered across all jobs."""
        return sum(r.job.size - r.remaining for r in self.records)


class Simulation:
    """Discrete-time simulation of the periodic controller loop.

    Parameters
    ----------
    network:
        The wavelength-switched network under control.
    tau:
        Scheduling period; must be a positive multiple of
        ``slice_length`` so epochs align with slice boundaries.
    slice_length:
        Slice granularity of the schedules.
    policy:
        Overload action: ``"reject"``, ``"reduce"`` or ``"extend"``.
    k_paths, alpha:
        Forwarded to the :class:`~repro.core.scheduler.Scheduler`.
    ret_b_max, ret_delta:
        Algorithm-2 parameters for the ``extend`` policy.
    rejection:
        Which admission algorithm the ``reject`` policy runs:
        ``"prefix"`` (footnote 1's binary search) or ``"greedy"`` (the
        non-prefix variant, which skips misfits instead of cutting the
        whole tail).
    keep_schedules:
        Retain every epoch's full :class:`~repro.core.scheduler.ScheduleResult`
        on the result (``schedules`` attribute) for post-hoc analysis,
        e.g. reconfiguration churn.  Off by default (memory).
    capacity_profile:
        Optional :class:`~repro.network.capacity.CapacityProfile` in
        *absolute* time: maintenance windows and background load the
        online controller must schedule around.  Re-based onto each
        epoch's grid automatically; slices past the profile's horizon
        fall back to installed capacity.  Applies to the scheduling
        passes; the ``extend`` policy's RET extension search does not
        see it (the resulting schedule still honours it).
    telemetry:
        Optional :class:`~repro.obs.Telemetry` collecting the whole
        run: each epoch's admission + scheduling work is timed under a
        ``"scheduling_pass"`` span, and the scheduler's and RET's own
        records accumulate beneath it.  ``None`` measures nothing.
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule` of link failures,
        degradations and repairs.  The controller detects faults at
        epoch boundaries (emitting ``LinkFailed`` / ``LinkDegraded`` /
        ``LinkRestored``), voids in-flight volume a mid-epoch fault
        destroyed (``DeliveryLost``), and replans surviving jobs with
        paths rebuilt around dead links (``JobRescheduled``); jobs whose
        endpoints are disconnected are held until repair.  Admission
        decisions under the ``reject`` policy still use installed
        capacity — the controller only learns of a fault's throughput
        cost at the scheduling stage.
    resilience:
        Optional :class:`~repro.lp.solver.SolveResilience` for every LP
        solve in the run.  Defaults to
        :data:`~repro.lp.solver.DEFAULT_RESILIENCE` when a
        ``fault_schedule`` is given (a fault run should not die on a
        transient solver failure) and to single-shot solving otherwise.
    verify_epochs:
        Run the shared invariant checker
        (:func:`repro.verify.verify_assignment`) on every epoch's
        allocation: the planned LPDAR assignment against the epoch's
        planning capacities, and — when a fault voided in-flight volume
        — the realized allocation against the fault ground truth
        (worst-case capacity over each executed slice).  Any violation
        raises :class:`~repro.errors.ScheduleError` immediately; the
        per-epoch reports accumulate on ``SimulationResult.verification``.
        The fairness floor is not checked here: the scheduler's
        ``alpha`` escalation may legitimately stop at its cap with the
        floor unmet (Remark 1), which the result records as
        ``meets_fairness`` rather than as a defect.
    journal:
        Optional path to a write-ahead epoch journal
        (:class:`~repro.recovery.journal.EpochJournal`).  The run
        commits its full controller state there after every epoch, and
        :meth:`resume` can pick the run up from the last committed
        epoch after a crash.  Incompatible with ``capacity_profile``
        and ``keep_schedules`` (neither is journal-serializable).
    solve_budget:
        Optional :class:`~repro.lp.solver.SolveBudget` wall-clock
        allowance, restarted at every epoch boundary and covering the
        epoch's whole solve chain (RET extension search + scheduling
        pass).  Exhaustion never aborts the epoch: the scheduler's
        degradation ladder commits a cheaper feasible assignment and
        the run emits a :class:`~repro.sim.events.DegradedSolve` event.
    crash_injector:
        Optional :class:`~repro.recovery.crash.CrashInjector` killing
        the run at a named crash point for recovery testing.  The
        ``mid-journal`` point requires a ``journal``.
    warm_start:
        Whether the run's shared :class:`~repro.engine.ModelEngine` may
        reuse path sets, structure layouts and memoized RET probe
        solutions across epochs (the default).  ``False`` — the CLI's
        ``--no-warm-start`` — rebuilds and re-solves everything from
        scratch each epoch; results (records, events, journal bytes)
        are identical either way, only slower.  Recorded in the journal
        header so :meth:`resume` replays with the same setting.
    verify_solutions:
        Treat solver backends as untrusted (chaos hardening): forwarded
        to the :class:`~repro.core.scheduler.Scheduler`, whose
        stage-1/stage-2 solutions are then checked by
        :func:`repro.verify.verify_schedule` *before* rounding — a
        backend returning a subtly wrong solution raises
        :class:`~repro.errors.ScheduleError` before anything reaches
        the journal.
    journal_fault_injector:
        Optional chaos hook installed on the run's
        :class:`~repro.recovery.journal.EpochJournal`
        (``fault_injector`` attribute; see :mod:`repro.chaos.inject`).
        An injected write fault surfaces as
        :class:`~repro.errors.JournalWriteError` out of :meth:`run` —
        fail-stop with the prior journal intact, exactly like a full
        disk would.
    control_policy:
        Optional :class:`~repro.control.ControlPolicy` deciding each
        epoch's knobs (alpha escalation, ``k_paths``, admission policy,
        solve-budget split) through the shared
        :class:`~repro.control.EpochKernel`.  ``None`` (the default)
        and :class:`~repro.control.FixedPolicy` are byte-identical to
        each other; adaptive policies are incompatible with ``journal=``
        (a resumed run cannot replay the policy's state).  See
        ``docs/architecture.md``.
    """

    def __init__(
        self,
        network: Network,
        tau: float = 1.0,
        slice_length: float = 1.0,
        policy: AdmissionPolicy = "reduce",
        k_paths: int = 4,
        alpha: float = 0.1,
        ret_b_max: float = 10.0,
        ret_delta: float = 0.1,
        rejection: str = "prefix",
        keep_schedules: bool = False,
        capacity_profile=None,
        telemetry: Telemetry | None = None,
        fault_schedule: FaultSchedule | None = None,
        resilience: SolveResilience | None = None,
        verify_epochs: bool = False,
        journal: str | Path | None = None,
        solve_budget: SolveBudget | None = None,
        crash_injector: CrashInjector | None = None,
        warm_start: bool = True,
        verify_solutions: bool = False,
        journal_fault_injector=None,
        control_policy=None,
    ) -> None:
        if tau <= 0 or slice_length <= 0:
            raise ValidationError("tau and slice_length must be positive")
        ratio = tau / slice_length
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValidationError(
                f"tau ({tau}) must be a positive multiple of slice_length "
                f"({slice_length}) so epochs align with slice boundaries"
            )
        if policy not in ("reject", "reduce", "extend"):
            raise ValidationError(f"unknown policy {policy!r}")
        if rejection not in ("prefix", "greedy"):
            raise ValidationError(f"unknown rejection variant {rejection!r}")
        self.rejection = rejection
        self.network = network
        self.tau = float(tau)
        self.slice_length = float(slice_length)
        self.slices_per_epoch = int(round(ratio))
        self.policy: AdmissionPolicy = policy
        self.k_paths = k_paths
        self.alpha = alpha
        self.ret_b_max = ret_b_max
        self.ret_delta = ret_delta
        self.keep_schedules = keep_schedules
        if capacity_profile is not None and capacity_profile.network is not network:
            raise ValidationError(
                "capacity profile was built for a different network"
            )
        self.capacity_profile = capacity_profile
        if fault_schedule is not None and fault_schedule.network is not network:
            raise ValidationError(
                "fault schedule was built for a different network"
            )
        self.fault_schedule = fault_schedule
        if resilience is None and fault_schedule is not None:
            resilience = DEFAULT_RESILIENCE
        self.resilience = resilience
        self.verify_epochs = verify_epochs
        self.telemetry = telemetry or NULL_TELEMETRY
        self.warm_start = bool(warm_start)
        self.verify_solutions = bool(verify_solutions)
        self.journal_fault_injector = journal_fault_injector
        # One engine for the whole run: path sets, structure layouts and
        # memoized RET probe solves carry over between epochs.  A cold
        # engine (--no-warm-start) rebuilds everything from scratch each
        # epoch; results are identical either way.
        self._engine = (
            ModelEngine(network, k_paths, telemetry=self.telemetry)
            if self.warm_start
            else ModelEngine.cold(network, k_paths, telemetry=self.telemetry)
        )
        if journal is not None:
            if capacity_profile is not None:
                raise ValidationError(
                    "journal= cannot be combined with capacity_profile=; "
                    "external capacity profiles are not journal-serializable"
                )
            if keep_schedules:
                raise ValidationError(
                    "journal= cannot be combined with keep_schedules=True; "
                    "live ScheduleResult objects are not journal-serializable"
                )
        self.journal_path = Path(journal) if journal is not None else None
        self.solve_budget = solve_budget
        if (
            crash_injector is not None
            and crash_injector.point == "mid-journal"
            and journal is None
        ):
            raise ValidationError(
                'the "mid-journal" crash point needs a journal= path to tear'
            )
        self.crash_injector = crash_injector
        if control_policy is not None and not getattr(
            control_policy, "journal_safe", False
        ):
            # A resumed run replays without the policy object, so an
            # adaptive policy would fork the recorded timeline.
            if journal is not None:
                raise ValidationError(
                    "journal= requires a journal-safe control policy "
                    "(FixedPolicy or None); adaptive policies cannot be "
                    "replayed on resume"
                )
        self.control_policy = control_policy
        #: Per-``k_paths`` engines and per-action schedulers, built
        #: lazily the first epoch an adaptive policy deviates from the
        #: base knobs and reused for the rest of the run.
        self._engines_by_k: dict[int, ModelEngine] = {}
        self._schedulers_by_action: dict[tuple, Scheduler] = {}

    # ------------------------------------------------------------------
    def run(self, jobs: JobSet, horizon: float | None = None) -> SimulationResult:
        """Simulate until every job is resolved or ``horizon`` is reached."""
        kernel, steps = self.controller(jobs, horizon)
        return self._drive(steps)

    def controller(self, jobs: JobSet, horizon: float | None = None):
        """Start a run in stepwise form: ``(kernel, steps generator)``.

        The generator is the controller loop itself, paused at every
        decision point: it yields ``("decide", observation)`` before
        each scheduling pass (send an
        :class:`~repro.control.EpochAction` to override the knobs, or
        ``None`` to let the kernel's policy decide) and
        ``("outcome", EpochOutcome)`` after each committed epoch; its
        ``StopIteration.value`` is the :class:`SimulationResult`.
        :meth:`run` drives it start to finish sending ``None``;
        :class:`~repro.control.SchedulingEnv` exposes the same pauses
        as a gym-style ``reset``/``step`` interface.
        """
        if len(jobs) == 0:
            raise ValidationError("cannot simulate an empty job set")
        if horizon is None:
            # Generous default: latest deadline plus full RET headroom.
            horizon = (1.0 + self.ret_b_max) * jobs.max_end()
        records = {j.id: JobRecord(j, j.end, j.size) for j in jobs}
        order = [j.id for j in jobs]
        journal = None
        if self.journal_path is not None:
            journal = EpochJournal.create(
                self.journal_path, self._journal_header(jobs, horizon)
            )
            # Attached after create(): the header write must succeed, or
            # there is no journal to fail-stop around.
            journal.fault_injector = self.journal_fault_injector
        return self._controller(
            jobs,
            float(horizon),
            records,
            order,
            events=[],
            now=0.0,
            epoch=0,
            fault_idx=0,
            used_edges={},
            journal=journal,
        )

    @classmethod
    def resume(
        cls,
        path: str | Path,
        telemetry: Telemetry | None = None,
        crash_injector: CrashInjector | None = None,
        journal_fault_injector=None,
    ) -> SimulationResult:
        """Recover a crashed run from its journal and finish it.

        ``crash_injector`` / ``journal_fault_injector`` optionally arm
        the *resumed* run with fresh fault hooks — the chaos engine's
        composed timelines chain several crashes and write faults
        through repeated resumes this way.

        Rebuilds the simulation (network, jobs, configuration, fault
        timeline) from the journal header, replays every committed
        epoch's state, and continues the controller loop from the last
        committed epoch boundary.  A torn or corrupt journal tail is
        dropped silently — the run re-executes from the last valid
        record (solves are deterministic, so the redone epoch commits
        the same state the crash destroyed).  The continued run keeps
        appending to the same journal, healing any torn tail on its
        first commit.

        Raises :class:`~repro.errors.JournalError` when the journal is
        missing or unusable (see
        :func:`~repro.recovery.journal.read_journal`).
        """
        from ..serialization import (
            fault_events_from_list,
            jobs_from_dict,
            network_from_dict,
        )

        replay = read_journal(path)
        header = replay.header
        if header.get("service"):
            raise ValidationError(
                f"{path} is a reservation-service journal; "
                "use ReservationService.resume"
            )
        try:
            network = network_from_dict(header["network"])
            jobs = jobs_from_dict({"jobs": header["jobs"]})
            config = dict(header["config"])
            horizon = float(header["horizon"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"journal header at {path} is missing field {exc}"
            ) from None
        planner = config.get("planner", "monolithic")
        if planner != "monolithic":
            raise ValidationError(
                f"journal header at {path} names planner {planner!r}; "
                "only the monolithic planner exists"
            )
        fault_schedule = None
        if header.get("faults") is not None:
            fault_schedule = FaultSchedule(
                network, fault_events_from_list(header["faults"])
            )
        solve_budget = (
            SolveBudget(**config["solve_budget"])
            if config.get("solve_budget")
            else None
        )
        resilience = (
            SolveResilience(**config["resilience"])
            if config.get("resilience")
            else None
        )
        sim = cls(
            network,
            tau=config["tau"],
            slice_length=config["slice_length"],
            policy=config["policy"],
            k_paths=config["k_paths"],
            alpha=config["alpha"],
            ret_b_max=config["ret_b_max"],
            ret_delta=config["ret_delta"],
            rejection=config["rejection"],
            verify_epochs=config.get("verify_epochs", False),
            telemetry=telemetry,
            fault_schedule=fault_schedule,
            resilience=resilience,
            journal=path,
            solve_budget=solve_budget,
            warm_start=config.get("warm_start", True),
            verify_solutions=config.get("verify_solutions", False),
            crash_injector=crash_injector,
            journal_fault_injector=journal_fault_injector,
        )
        records = {j.id: JobRecord(j, j.end, j.size) for j in jobs}
        order = [j.id for j in jobs]
        events: list[Event] = []
        for entry in replay.entries:
            for ev in entry.get("events", ()):
                events.append(event_from_dict(ev))
        now, epoch, fault_idx = 0.0, 0, 0
        used_edges: dict[int | str, frozenset[int]] = {}
        last = replay.last_entry
        if last is not None:
            now = float(last["now"])
            epoch = int(last["epoch"])
            fault_idx = int(last["fault_idx"])
            for rec_data in last["records"]:
                rec = records[rec_data["job"]]
                rec.status = str(rec_data["status"])
                rec.remaining = float(rec_data["remaining"])
                rec.effective_end = float(rec_data["effective_end"])
                ct = rec_data["completion_time"]
                rec.completion_time = float(ct) if ct is not None else None
            used_edges = {
                row[0]: frozenset(int(e) for e in row[1])
                for row in last.get("used_edges", ())
            }
        journal = EpochJournal.open_existing(path)
        journal.fault_injector = journal_fault_injector
        sim.telemetry.count("journal_resumes")
        return sim._run_loop(
            jobs,
            horizon,
            records,
            order,
            events,
            now,
            epoch,
            fault_idx,
            used_edges,
            journal,
        )

    # ------------------------------------------------------------------
    def _journal_header(self, jobs: JobSet, horizon: float) -> dict:
        """The journal's immutable run description (first line)."""
        return simulation_journal_header(
            network=self.network,
            jobs=jobs,
            horizon=horizon,
            tau=self.tau,
            slice_length=self.slice_length,
            policy=self.policy,
            k_paths=self.k_paths,
            alpha=self.alpha,
            ret_b_max=self.ret_b_max,
            ret_delta=self.ret_delta,
            rejection=self.rejection,
            verify_epochs=self.verify_epochs,
            verify_solutions=self.verify_solutions,
            warm_start=self.warm_start,
            solve_budget=self.solve_budget,
            resilience=self.resilience,
            fault_schedule=self.fault_schedule,
        )

    def _make_kernel(self, now: float, epoch: int, fault_idx: int) -> EpochKernel:
        """One run's shared epoch-control kernel, seeded at a boundary."""
        return EpochKernel(
            tau=self.tau,
            slice_length=self.slice_length,
            base_action=base_action_for(
                alpha=self.alpha,
                k_paths=self.k_paths,
                admission_policy=self.policy,
                rejection=self.rejection,
            ),
            policy=self.control_policy,
            fault_schedule=self.fault_schedule,
            crash_injector=self.crash_injector,
            solve_budget=self.solve_budget,
            engine=self._engine,
            telemetry=self.telemetry,
            now=now,
            epoch=epoch,
            fault_idx=fault_idx,
        )

    def _engine_for(self, k_paths: int) -> ModelEngine:
        """The engine serving a (possibly policy-chosen) ``k_paths``."""
        if k_paths == self.k_paths:
            return self._engine
        if k_paths not in self._engines_by_k:
            self._engines_by_k[k_paths] = (
                ModelEngine(self.network, k_paths, telemetry=self.telemetry)
                if self.warm_start
                else ModelEngine.cold(
                    self.network, k_paths, telemetry=self.telemetry
                )
            )
        return self._engines_by_k[k_paths]

    def _scheduler_for(self, action, engine) -> Scheduler:
        """A scheduler configured for a non-base epoch action (cached)."""
        key = (action.alpha, action.alpha_step, action.alpha_max, action.k_paths)
        if key not in self._schedulers_by_action:
            self._schedulers_by_action[key] = Scheduler(
                self.network,
                k_paths=action.k_paths,
                alpha=action.alpha,
                alpha_step=action.alpha_step,
                alpha_max=action.alpha_max,
                slice_length=self.slice_length,
                telemetry=self.telemetry,
                resilience=self.resilience,
                engine=engine,
                verify_solutions=self.verify_solutions,
            )
        return self._schedulers_by_action[key]

    @staticmethod
    def _drive(steps) -> SimulationResult:
        """Run a controller generator to completion, letting the kernel
        (and its policy, if any) make every decision."""
        try:
            while True:
                steps.send(None)
        except StopIteration as stop:
            return stop.value

    def _run_loop(
        self,
        jobs: JobSet,
        horizon: float,
        records: dict,
        order: list,
        events: list,
        now: float,
        epoch: int,
        fault_idx: int,
        used_edges: dict,
        journal: EpochJournal | None,
    ) -> SimulationResult:
        """Drive the controller from an arbitrary committed state.

        ``run`` enters it with fresh state, ``resume`` with state
        replayed from a journal; everything the loop mutates is either
        an argument or derived from one, so the two entry points share
        every line of epoch logic.
        """
        kernel, steps = self._controller(
            jobs, horizon, records, order, events, now, epoch, fault_idx,
            used_edges, journal,
        )
        return self._drive(steps)

    def _controller(
        self,
        jobs: JobSet,
        horizon: float,
        records: dict,
        order: list,
        events: list,
        now: float,
        epoch: int,
        fault_idx: int,
        used_edges: dict,
        journal: EpochJournal | None,
    ):
        """Build the kernel + paused controller generator pair."""
        kernel = self._make_kernel(now, epoch, fault_idx)
        steps = self._epoch_steps(
            kernel, jobs, horizon, records, order, events, used_edges, journal
        )
        return kernel, steps

    def _epoch_steps(
        self,
        kernel: EpochKernel,
        jobs: JobSet,
        horizon: float,
        records: dict,
        order: list,
        events: list,
        used_edges: dict,
        journal: EpochJournal | None,
    ):
        """The controller loop as a generator over the kernel contract.

        Each epoch runs observe → decide → solve → execute → commit.
        The generator pauses twice per scheduling epoch: at the decide
        point (yielding ``("decide", observation)``; send an action to
        override, ``None`` to let the kernel's policy choose) and after
        the commit (yielding ``("outcome", EpochOutcome)``).  Returns
        the :class:`SimulationResult` via ``StopIteration.value``.
        """
        kept_schedules: list = []
        verification: list = []
        base_scheduler = Scheduler(
            self.network,
            k_paths=self.k_paths,
            alpha=self.alpha,
            slice_length=self.slice_length,
            telemetry=self.telemetry,
            resilience=self.resilience,
            engine=self._engine,
            verify_solutions=self.verify_solutions,
        )
        base_paths = self._engine.topology.path_sets(jobs.od_pairs())

        journal_mark = len(events)

        def commit(crash_epoch: int | None = None) -> None:
            """Durably record the loop state reached so far."""
            nonlocal journal_mark
            if journal is None:
                return
            entry = simulation_journal_entry(
                order,
                records,
                kernel.now,
                kernel.epoch,
                kernel.fault_idx,
                used_edges,
                events[journal_mark:],
            )
            kernel.commit(journal, entry, crash_epoch=crash_epoch)
            journal_mark = len(events)

        unseen = sorted(
            (rec.job for rec in records.values() if rec.status == "pending"),
            key=lambda j: (j.arrival, str(j.id)),
        )
        while kernel.now < horizon - 1e-9:
            now = kernel.now
            # 1. Collect arrivals up to this epoch.
            while unseen and unseen[0].arrival <= now + 1e-9:
                job = unseen.pop(0)
                events.append(JobArrived(now, job.id))
                records[job.id].status = "active"

            # 1b. Detect faults that struck since the last boundary (the
            # kernel advances the cursor and drops any carried plan whose
            # feasibility certificate predates the strike); translate the
            # raw timeline events into the simulator's detection log.
            detection = kernel.detect_faults(now)
            affected = detection.affected
            for ev in detection.events:
                if isinstance(ev, LinkDown):
                    events.append(LinkFailed(now, ev.source, ev.target, ev.time))
                elif isinstance(ev, WavelengthDegrade):
                    events.append(
                        LinkDegraded(now, ev.source, ev.target, ev.remaining, ev.time)
                    )
                else:
                    events.append(LinkRestored(now, ev.source, ev.target, ev.time))

            # 2. Expire active jobs whose window can no longer fit a slice.
            self._expire_stale(records, now, events)

            # 2b. Flag survivors whose current plan crossed a dead link.
            if affected:
                for rec in records.values():
                    if rec.status != "active":
                        continue
                    if used_edges.get(rec.job.id, frozenset()) & affected:
                        events.append(
                            JobRescheduled(
                                now, rec.job.id, "replanning around failed link"
                            )
                        )

            # 3. Residual instance over future time.
            residual = self._residual_jobs(records, now)
            if residual is None:
                if not unseen:
                    break  # nothing active, nothing to come
                kernel.advance(to=self._advance_to(unseen[0].arrival))
                commit()
                continue

            # 3b. The decide point: observe, then let the policy (or a
            # SchedulingEnv driver) pick this epoch's knobs.  Without a
            # policy the observation is skipped and the base action is
            # returned untouched — the zero-overhead default path.
            obs = None
            if kernel.wants_observation:
                active = [r for r in records.values() if r.status == "active"]
                obs = kernel.observe(
                    backlog=len(active),
                    total_remaining=sum(r.remaining for r in active),
                    queue_depth=len(unseen),
                )
            action = yield ("decide", obs)
            if action is None:
                action = kernel.decide(obs)
            else:
                action = action.validate()
            engine = self._engine_for(action.k_paths)
            epoch_scheduler = (
                base_scheduler
                if action == kernel.base_action
                else self._scheduler_for(action, engine)
            )
            budget = kernel.budget_for(action)

            kernel.crash_point("pre-solve")
            if budget is not None:
                # A fresh allowance per epoch: the budget covers the
                # whole solve chain (RET + scheduling) for this pass.
                budget.restart()

            # 4. Admission control + scheduling, timed as one pass (the
            #    span replaces the old hand-rolled perf_counter block and
            #    also feeds the SchedulingPass event's solve time).
            with self.telemetry.span("scheduling_pass") as pass_span:
                epoch_paths = None
                if self.fault_schedule is not None:
                    residual, epoch_paths = self._route_around_faults(
                        residual, now, engine
                    )
                if residual is not None:
                    residual = self._apply_policy(
                        residual, records, now, events, epoch_paths,
                        action=action, engine=engine, budget=budget,
                    )
                if residual is not None:
                    grid = TimeGrid.covering(
                        max(residual.max_end(), now + self.tau),
                        self.slice_length,
                        start=now,
                    )
                    profile = self._epoch_profile(grid, now)
                    if epoch_paths is None and profile is None:
                        epoch_paths = (
                            base_paths
                            if engine is self._engine
                            else engine.topology.path_sets(residual.od_pairs())
                        )
                    result = epoch_scheduler.schedule(
                        residual,
                        grid,
                        capacity_profile=profile,
                        path_sets=epoch_paths,
                        budget=budget,
                    )
            if residual is not None and self.telemetry.enabled:
                # Per-epoch engine reuse evidence (telemetry-only — the
                # records never enter the journal, so warm/cold
                # equivalence is untouched).
                self.telemetry.record(
                    "epoch_cache_stats", epoch=kernel.epoch,
                    **kernel.cache_delta(),
                )
            if residual is None:
                kernel.advance()
                commit()
                continue
            kernel.crash_point("post-solve")
            events.append(
                SchedulingPass(
                    now,
                    kernel.epoch,
                    len(residual),
                    result.zstar,
                    result.overloaded,
                    pass_span.elapsed,
                    mean_link_utilization(result.structure, result.x),
                )
            )
            if result.degraded is not None:
                events.append(
                    DegradedSolve(
                        now, kernel.epoch, result.degraded,
                        result.degraded_reason or "",
                    )
                )

            if self.keep_schedules:
                kept_schedules.append((kernel.epoch, result))
            if self.fault_schedule is not None:
                used_edges.update(
                    shared_used_edges(result.structure, result.x, _VOLUME_TOL)
                )
            if self.verify_epochs:
                self._verify_planned(result, verification)

            # 5. Execute the first tau worth of slices, then commit the
            #    post-execution state as this epoch's journal record.
            delivered, completed = self._execute(
                result, records, now, events, verification
            )
            kernel.crash_point("pre-commit")
            pass_epoch = kernel.epoch
            kernel.advance()
            commit(crash_epoch=pass_epoch)
            kernel.crash_point("post-commit", pass_epoch)
            outcome = EpochOutcome(
                epoch=pass_epoch,
                delivered=delivered,
                completed=completed,
                zstar=result.zstar,
                overloaded=result.overloaded,
                degraded=result.degraded is not None,
            )
            kernel.feedback(obs, action, outcome)
            yield ("outcome", outcome)

        self._expire_stale(records, horizon, events, final=True)
        if journal is not None:
            journal.close()  # run finished: release the append lock
        return SimulationResult(
            records=tuple(records[i] for i in order),
            events=tuple(events),
            horizon=float(horizon),
            schedules=tuple(kept_schedules),
            verification=tuple(verification),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _advance_to(self, t: float) -> float:
        """Next epoch boundary at or after ``t``."""
        return np.ceil(t / self.tau - 1e-9) * self.tau

    def _route_around_faults(
        self, residual: JobSet, now: float, engine: ModelEngine | None = None
    ) -> tuple[JobSet | None, dict | None]:
        """Rebuild paths without currently failed links; hold cut-off jobs.

        Jobs whose endpoints are disconnected by the failures cannot be
        scheduled this epoch; they stay ``active`` (delivering nothing)
        until a repair reconnects them or their window expires.
        """
        failed = self.fault_schedule.failed_edges_at(now)
        if not failed:
            return residual, None
        engine = engine if engine is not None else self._engine
        epoch_paths = engine.topology.path_sets(
            residual.od_pairs(), banned_edges=failed
        )
        routable = [j for j in residual if epoch_paths[(j.source, j.dest)]]
        if len(routable) == len(residual):
            return residual, epoch_paths
        return (JobSet(routable) if routable else None), epoch_paths

    def _epoch_profile(self, grid: TimeGrid, now: float):
        """Planning capacities for one epoch: maintenance ∧ fault state.

        The fault side is the *snapshot* at ``now`` held constant: the
        controller knows which links are currently down or degraded but
        not when they will be repaired, so it plans as if the present
        state persists.
        """
        profile = (
            self.capacity_profile.for_grid(grid)
            if self.capacity_profile is not None
            else None
        )
        if self.fault_schedule is not None:
            snap = self.fault_schedule.snapshot_profile(grid, now)
            if profile is None:
                profile = snap
            else:
                profile = CapacityProfile(
                    self.network, grid, np.minimum(profile.matrix, snap.matrix)
                )
        return profile

    def _residual_jobs(self, records: dict, now: float) -> JobSet | None:
        """Unfinished admitted jobs, re-windowed to start at ``now``."""
        out = []
        for rec in records.values():
            if rec.status != "active":
                continue
            start = max(rec.job.start, now)
            if window_closed(rec.job.start, rec.effective_end, now,
                             self.slice_length):
                continue  # expiry pass will catch it
            out.append(
                replace(
                    rec.job,
                    size=rec.remaining,
                    start=start,
                    end=rec.effective_end,
                    arrival=min(rec.job.arrival, start),
                )
            )
        return JobSet(out) if out else None

    def _expire_stale(
        self, records: dict, now: float, events: list, final: bool = False
    ) -> None:
        """Expire active jobs whose window can no longer hold one slice.

        The simulator applies the shared
        :func:`~repro.control.kernel.window_closed` predicate to the
        *effective* (possibly RET-extended) deadline — unlike the
        service, which expires against the committed end time — and
        additionally force-expires everything at the horizon
        (``final=True``).
        """
        for rec in records.values():
            if rec.status != "active":
                continue
            if final or window_closed(rec.job.start, rec.effective_end, now,
                                      self.slice_length):
                rec.status = "expired"
                events.append(JobExpired(now, rec.job.id, rec.remaining))

    def _apply_policy(
        self,
        residual: JobSet,
        records: dict,
        now: float,
        events: list,
        path_sets: dict | None = None,
        action=None,
        engine: ModelEngine | None = None,
        budget: SolveBudget | None = None,
    ) -> JobSet | None:
        """Admission action; may reject jobs or extend deadlines in place.

        ``path_sets`` carries the fault-aware routes (failed links
        banned) so the ``extend`` policy's RET search cannot plan an
        extension over capacity that no longer exists.  ``action`` /
        ``engine`` / ``budget`` override the run's configured knobs for
        one epoch (a control policy's decision); left at ``None`` they
        fall back to the constructor configuration.
        """
        policy = self.policy if action is None else action.admission_policy
        rejection = self.rejection if action is None else action.rejection
        k_paths = self.k_paths if action is None else action.k_paths
        engine = engine if engine is not None else self._engine
        if action is None:
            budget = self.solve_budget
        if policy == "reduce":
            return residual

        if policy == "reject":
            grid = TimeGrid.covering(
                max(residual.max_end(), now + self.tau), self.slice_length, start=now
            )
            admit = admit_greedy if rejection == "greedy" else admit_max_prefix
            decision = admit(
                self.network,
                residual,
                grid,
                k_paths,
                threshold=1.0,
                key=by_arrival,
                engine=engine,
                budget=budget,
                path_sets=path_sets,
            )
            if decision.degraded:
                events.append(
                    DegradedSolve(
                        now,
                        int(round(now / self.tau)),
                        "admission",
                        "solve budget expired during the admission probe",
                    )
                )
            for job in decision.rejected:
                rec = records[job.id]
                # Never evict a job that already received service; it
                # simply stays admitted (best-effort) this epoch.
                if rec.remaining < rec.job.size - _VOLUME_TOL:
                    continue
                rec.status = "rejected"
                events.append(
                    JobRejected(now, job.id, "insufficient capacity (Z* < 1)")
                )
            admitted = [j for j in residual if records[j.id].status == "active"]
            return JobSet(admitted) if admitted else None

        # policy == "extend": stretch deadlines only when overloaded.
        try:
            ret = solve_ret(
                self.network,
                residual,
                slice_length=self.slice_length,
                k_paths=k_paths,
                b_max=self.ret_b_max,
                delta=self.ret_delta,
                path_sets=path_sets,
                telemetry=self.telemetry,
                resilience=self.resilience,
                budget=budget,
                engine=engine,
            )
        except (ScheduleError, BudgetExceededError):
            # No completing extension found (or no time left to look for
            # one): run best-effort; expiry will record the loss.
            return residual
        if ret.b_final > 0:
            out = []
            for job in residual:
                rec = records[job.id]
                new_end = (1.0 + ret.b_final) * job.end
                if new_end > rec.effective_end + 1e-9:
                    events.append(
                        JobDeadlineExtended(now, job.id, rec.effective_end, new_end)
                    )
                    rec.effective_end = new_end
                out.append(replace(job, end=new_end))
            return JobSet(out)
        return residual

    def _verify_planned(self, result, verification: list) -> None:
        """Check an epoch's planned LPDAR assignment; fail fast on errors.

        Fairness is deliberately unchecked: escalation may stop at
        ``alpha_max`` with the floor unmet, which is a recorded outcome
        (``result.meets_fairness``), not an invariant violation.
        """
        from ..verify.checker import verify_assignment

        report = verify_assignment(result.structure, result.x, integral=True)
        verification.append(report)
        report.raise_if_failed()

    def _verify_realized(
        self, structure, x_eff: np.ndarray, executed: list, verification: list
    ) -> None:
        """Check a fault-voided allocation against the fault ground truth.

        Voiding scales grants fractionally, so integrality no longer
        applies; capacity on executed slices is the worst case the
        faults left standing (``min_capacity_over``), intersected with
        the planning capacities the original assignment honoured.
        """
        from ..verify.checker import verify_assignment

        grid = structure.grid
        cap = structure.capacity_grid()
        for j in executed:
            caps = self.fault_schedule.min_capacity_over(
                grid.slice_start(j), grid.slice_end(j)
            )
            cap[:, j] = np.minimum(cap[:, j], caps)
        report = verify_assignment(structure, x_eff, integral=False, capacity=cap)
        verification.append(report)
        report.raise_if_failed()

    def _void_lost_volume(
        self, structure, x: np.ndarray, executed: list
    ) -> np.ndarray:
        """Scale executed grants down to what the faulted links carried.

        The schedule was planned against the epoch-boundary snapshot; a
        fault striking *inside* the epoch silently removes capacity the
        plan assumed.  Per executed slice, every edge whose planned load
        exceeds its worst-case actual capacity scales the grants
        crossing it by ``capacity / load`` (to zero on a full cut); a
        grant's surviving fraction is the minimum over its path's edges,
        which guarantees delivered volume never exceeds actual capacity
        on any (edge, slice).
        """
        fs = self.fault_schedule
        grid = structure.grid
        x_eff = x.copy()
        changed = False
        for j in executed:
            caps = fs.min_capacity_over(grid.slice_start(j), grid.slice_end(j))
            cols = np.flatnonzero((structure.col_slice == j) & (x > _VOLUME_TOL))
            if cols.size == 0:
                continue
            load = np.zeros(self.network.num_edges)
            edge_lists = []
            for c in cols:
                i = int(structure.col_job[c])
                path = structure.paths[i][int(structure.col_path[c])]
                edge_lists.append(path.edge_ids)
                for e in path.edge_ids:
                    load[e] += x[c]
            factor = np.ones(self.network.num_edges)
            over = load > caps + _VOLUME_TOL
            factor[over] = caps[over] / load[over]
            for c, edge_ids in zip(cols, edge_lists):
                f = min(factor[e] for e in edge_ids)
                if f < 1.0:
                    x_eff[c] = x[c] * f
                    changed = True
        return x_eff if changed else x

    def _execute(
        self,
        result,
        records: dict,
        now: float,
        events: list,
        verification: list | None = None,
    ) -> tuple[float, int]:
        """Deliver the first epoch's slices of the freshly computed schedule.

        Returns ``(delivered volume, completions)`` for the epoch — the
        outcome signal the control kernel feeds back to its policy.
        """
        delivered = 0.0
        completions = 0
        structure = result.structure
        grid = structure.grid
        executed = [
            j
            for j in range(grid.num_slices)
            if grid.slice_start(j) < now + self.tau - 1e-9
        ]
        if not executed:
            return delivered, completions
        x = np.asarray(result.x, dtype=float)
        x_eff = x
        if self.fault_schedule is not None:
            x_eff = self._void_lost_volume(structure, x, executed)
            if self.verify_epochs and x_eff is not x and verification is not None:
                self._verify_realized(structure, x_eff, executed, verification)
        delivery = per_slice_delivery(structure, x_eff)
        planned = delivery if x_eff is x else per_slice_delivery(structure, x)
        rate = self.network.wavelength_rate
        for i, job in enumerate(structure.jobs):
            rec = records[job.id]
            volume = float(delivery[i, executed].sum()) * rate
            planned_volume = float(planned[i, executed].sum()) * rate
            lost = min(planned_volume, rec.remaining) - min(volume, rec.remaining)
            if lost > _VOLUME_TOL:
                events.append(
                    DeliveryLost(
                        now + self.tau,
                        job.id,
                        lost,
                        "link capacity lost mid-epoch",
                    )
                )
            if volume <= _VOLUME_TOL:
                continue
            volume = min(volume, rec.remaining)
            rec.remaining -= volume
            delivered += volume
            events.append(JobProgress(now + self.tau, job.id, volume, rec.remaining))
            if rec.remaining <= _VOLUME_TOL * max(rec.job.size, 1.0):
                rec.remaining = 0.0
                rec.status = "completed"
                completions += 1
                # Completion lands at the end of the last executed slice
                # that actually carried volume for this job.
                carrying = [j for j in executed if delivery[i, j] > 0]
                rec.completion_time = grid.slice_end(carrying[-1])
                events.append(
                    JobCompleted(rec.completion_time, job.id, rec.met_deadline)
                )
        return delivered, completions
