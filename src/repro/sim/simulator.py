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
    check_journal_safe,
    decode_run_config,
    encode_run_config,
    used_edges as shared_used_edges,
    window_closed,
)
from ..engine.engine import ModelEngine
from ..errors import BudgetExceededError, ScheduleError, ValidationError
from ..faults.events import LinkDown, WavelengthDegrade
from ..faults.schedule import FaultSchedule
from ..lp.solver import DEFAULT_RESILIENCE, SolveBudget, SolveResilience
from ..network.graph import Network
from ..obs import current
from ..recovery.crash import CrashInjector
from ..recovery.journal import EpochJournal, read_journal
from ..workload.jobs import Job, JobSet
from ..core.admission import admit_greedy, admit_max_prefix, by_arrival
from ..core.metrics import mean_link_utilization
from ..core.ret import solve_ret
from .events import (
    DegradedSolve,
    DeliveryLost,
    Event,
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
        epoch's grid and intersected with the fault snapshot
        (:meth:`~repro.control.EpochKernel.planning_profile`); slices
        past the profile's horizon fall back to installed capacity.
        Applies to the scheduling passes; the ``extend`` policy's RET
        extension search does not see it (the resulting schedule still
        honours it).
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule` of link failures,
        degradations and repairs.  The controller detects faults at
        epoch boundaries (``LinkFailed`` / ``LinkDegraded`` /
        ``LinkRestored``), replans surviving jobs on the boundary's
        fault snapshot around dead links (``JobRescheduled``), and
        voids executed volume a mid-epoch fault destroyed
        (``DeliveryLost``); disconnected jobs are held until repair.
        These are the kernel's rules, shared with the reservation
        service (:class:`~repro.control.EpochKernel`).  The ``reject``
        probes and the ``extend`` RET search avoid dead links but still
        assume installed capacity.
    resilience:
        Optional :class:`~repro.lp.solver.SolveResilience` for every LP
        solve in the run, the ``reject`` policy's admission probes
        included; it is set once, on the run's engines.  Defaults to
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

    Under a :class:`~repro.obs.Telemetry` collector, each epoch's
    admission + scheduling work is timed under a ``"scheduling_pass"``
    span, the scheduler's and RET's own records accumulate beneath it,
    and an ``epoch_cache_stats`` record reports the engine's reuse.
    """

    #: The constructor arguments the journal header records (besides the
    #: network, solve budget, resilience and fault timeline).
    _JOURNAL_FIELDS = (
        "tau", "slice_length", "policy", "k_paths", "alpha", "ret_b_max",
        "ret_delta", "rejection", "verify_epochs", "verify_solutions",
        "warm_start",
    )

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
        if k_paths < 1:
            raise ValidationError(f"k_paths must be >= 1, got {k_paths}")
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
        self.warm_start = bool(warm_start)
        self.verify_solutions = bool(verify_solutions)
        self.journal_fault_injector = journal_fault_injector
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
        check_journal_safe(control_policy, journal)
        self.control_policy = control_policy

    # ------------------------------------------------------------------
    def run(self, jobs: JobSet, horizon: float | None = None) -> SimulationResult:
        """Simulate until every job is resolved or ``horizon`` is reached."""
        kernel, steps = self.controller(jobs, horizon)
        return self._drive(steps)

    def controller(self, jobs: JobSet, horizon: float | None = None):
        """Start a run in stepwise form: ``(kernel, steps generator)``.

        The generator is the controller loop itself.  Each epoch runs
        named phases over one shared run state: arrivals and fault
        detection; expiry and reschedule flags; then, while a job is
        active, the decide point, admit, plan (the kernel's
        :meth:`~repro.control.EpochKernel.plan`), execute (its
        :meth:`~repro.control.EpochKernel.deliver`) and commit.  It
        yields ``("decide", observation)`` before each scheduling pass
        (send an :class:`~repro.control.EpochAction` to override the
        knobs, or ``None`` to let the kernel's policy decide) and
        ``("outcome", EpochOutcome)`` after each committed epoch; its
        ``StopIteration.value`` is the :class:`SimulationResult`.
        :meth:`run` drives it start to finish sending ``None``.
        """
        if len(jobs) == 0:
            raise ValidationError("cannot simulate an empty job set")
        if horizon is None:
            # Generous default: latest deadline plus full RET headroom.
            horizon = (1.0 + self.ret_b_max) * jobs.max_end()
        journal = None
        if self.journal_path is not None:
            journal = EpochJournal.create(
                self.journal_path, self._journal_header(jobs, horizon)
            )
            # Attached after create(): the header write must succeed, or
            # there is no journal to fail-stop around.
            journal.fault_injector = self.journal_fault_injector
        return self._start(jobs, float(horizon), journal)

    @classmethod
    def resume(
        cls,
        path: str | Path,
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
        from ..serialization import jobs_from_dict

        replay = read_journal(path)
        header = replay.header
        if header.get("service"):
            raise ValidationError(
                f"{path} is a reservation-service journal; "
                "use ReservationService.resume"
            )
        network, config = decode_run_config(header, cls._JOURNAL_FIELDS, path)
        try:
            jobs = jobs_from_dict({"jobs": header["jobs"]})
            horizon = float(header["horizon"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"journal header at {path} is missing field {exc}"
            ) from None
        planner = header["config"].get("planner", "monolithic")
        if planner != "monolithic":
            raise ValidationError(
                f"journal header at {path} names planner {planner!r}; "
                "only the monolithic planner exists"
            )
        sim = cls(
            network,
            **config,
            journal=path,
            crash_injector=crash_injector,
            journal_fault_injector=journal_fault_injector,
        )
        journal = EpochJournal.open_existing(path)
        journal.fault_injector = journal_fault_injector
        current().count("journal_resumes")
        _kernel, steps = sim._start(jobs, horizon, journal, replay)
        return sim._drive(steps)

    # ------------------------------------------------------------------
    def _journal_header(self, jobs: JobSet, horizon: float) -> dict:
        """The journal's immutable run description (first line)."""
        from ..serialization import jobs_to_dict

        header = encode_run_config(self, self._JOURNAL_FIELDS)
        # Always the one per-epoch planner; kept so existing journals and
        # their resume digests stay byte-identical.
        header["config"]["planner"] = "monolithic"
        header["jobs"] = jobs_to_dict(jobs)["jobs"]
        header["horizon"] = float(horizon)
        return header

    def _start(
        self,
        jobs: JobSet,
        horizon: float,
        journal: EpochJournal | None,
        replay=None,
    ):
        """Seed one run's state: ``(kernel, paused controller generator)``.

        A fresh run starts every job pending at time zero.  ``resume``
        passes the journal's ``replay``: its committed events come back
        into the log and its last entry's records, cursor and used edges
        overlay the fresh state.
        """
        kernel = EpochKernel.for_driver(self, base_action_for(
            alpha=self.alpha,
            k_paths=self.k_paths,
            admission_policy=self.policy,
            rejection=self.rejection,
        ))
        run = _Run(kernel, horizon, journal,
                   records={j.id: JobRecord(j, j.end, j.size) for j in jobs})
        last = None
        if replay is not None:
            for entry in replay.entries:
                run.events.extend(
                    event_from_dict(ev) for ev in entry.get("events", ())
                )
            last = replay.last_entry
        if last is not None:
            kernel.now = float(last["now"])
            kernel.epoch = int(last["epoch"])
            kernel.fault_idx = int(last["fault_idx"])
            for rec_data in last["records"]:
                rec = run.records[rec_data["job"]]
                rec.status = str(rec_data["status"])
                rec.remaining = float(rec_data["remaining"])
                rec.effective_end = float(rec_data["effective_end"])
                ct = rec_data["completion_time"]
                rec.completion_time = float(ct) if ct is not None else None
            run.used_edges = {
                row[0]: frozenset(int(e) for e in row[1])
                for row in last.get("used_edges", ())
            }
        run.arrivals = sorted(
            (rec.job for rec in run.records.values() if rec.status == "pending"),
            key=lambda j: (j.arrival, str(j.id)),
        )
        run.journal_mark = len(run.events)
        return kernel, self._epoch_steps(run)

    @staticmethod
    def _drive(steps) -> SimulationResult:
        """Run a controller generator to completion, letting the kernel
        (and its policy, if any) make every decision."""
        try:
            while True:
                steps.send(None)
        except StopIteration as stop:
            return stop.value

    def _epoch_steps(self, run: _Run):
        """The controller loop over the epoch phases (see :meth:`controller`)."""
        kernel = run.kernel
        while kernel.now < run.horizon - 1e-9:
            self._expire_and_flag(run, self._arrivals_and_faults(run))
            residual = self._residual_jobs(run.records, kernel.now)
            if residual is None:
                if run.next_arrival == len(run.arrivals):
                    break  # nothing active, nothing to come
                # Jump to the epoch boundary of the next arrival.
                t = run.arrivals[run.next_arrival].arrival
                kernel.advance(to=np.ceil(t / self.tau - 1e-9) * self.tau)
                self._commit(run)
                continue
            obs = self._observe(run)
            action = yield ("decide", obs)
            action = kernel.decide(obs) if action is None else action.validate()
            budget = kernel.budget_for(action)
            kernel.crash_point("pre-solve")
            if budget is not None:
                # A fresh allowance per epoch, covering the whole solve
                # chain (RET + scheduling) of this pass.
                budget.restart()
            result = self._plan(run, residual, action, budget)
            if result is None:
                kernel.advance()
                self._commit(run)
                continue
            delivered, completed = self._execute(run, result)
            outcome = self._commit_pass(run, result, delivered, completed)
            kernel.feedback(obs, action, outcome)
            yield ("outcome", outcome)

        self._expire_stale(run.records, run.horizon, run.events, final=True)
        if run.journal is not None:
            run.journal.close()  # run finished: release the append lock
        return SimulationResult(
            records=tuple(run.records.values()),
            events=tuple(run.events),
            horizon=float(run.horizon),
            schedules=tuple(run.schedules),
            verification=tuple(run.verification),
        )

    # ------------------------------------------------------------------
    # Epoch phases
    # ------------------------------------------------------------------
    def _arrivals_and_faults(self, run: _Run) -> frozenset[int]:
        """Activate the jobs that arrived by now and detect new faults.

        The kernel advances the fault cursor; the raw timeline events
        become the simulator's detection log.  Returns
        the edges whose capacity a new fault cut.
        """
        now, events = run.kernel.now, run.events
        arrivals = run.arrivals
        while (run.next_arrival < len(arrivals)
               and arrivals[run.next_arrival].arrival <= now + 1e-9):
            job = arrivals[run.next_arrival]
            run.next_arrival += 1
            events.append(JobArrived(now, job.id))
            run.records[job.id].status = "active"
        detection = run.kernel.detect_faults()
        for ev in detection.events:
            if isinstance(ev, LinkDown):
                events.append(LinkFailed(now, ev.source, ev.target, ev.time))
            elif isinstance(ev, WavelengthDegrade):
                events.append(
                    LinkDegraded(now, ev.source, ev.target, ev.remaining, ev.time)
                )
            else:
                events.append(LinkRestored(now, ev.source, ev.target, ev.time))
        return detection.affected

    def _expire_and_flag(self, run: _Run, affected: frozenset[int]) -> None:
        """Expire stale windows; flag survivors whose plan crossed a
        link that just lost capacity."""
        now = run.kernel.now
        self._expire_stale(run.records, now, run.events)
        if not affected:
            return
        for rec in run.records.values():
            if (rec.status == "active"
                    and run.used_edges.get(rec.job.id, frozenset()) & affected):
                run.events.append(JobRescheduled(
                    now, rec.job.id, "replanning around failed link"
                ))

    def _observe(self, run: _Run):
        """The decide point's observation.

        Without a policy it is skipped (``None``) and the kernel returns
        the base action untouched: the zero-overhead default path.
        """
        if not run.kernel.wants_observation:
            return None
        active = [r for r in run.records.values() if r.status == "active"]
        return run.kernel.observe(
            backlog=len(active),
            total_remaining=sum(r.remaining for r in active),
            queue_depth=len(run.arrivals) - run.next_arrival,
        )

    def _admit(self, run: _Run, residual: JobSet, action, budget):
        """Route around dead links, then apply the admission policy.

        Jobs the failures cut off are held: they stay active, delivering
        nothing, until a repair reconnects them or their window expires.
        Returns ``(admitted residual or None, the epoch's path sets)``.
        """
        engine = run.kernel.engine_for(action.k_paths)
        paths = run.kernel.routes(residual, engine)
        if paths is not None:
            routable = [j for j in residual if paths[(j.source, j.dest)]]
            residual = JobSet(routable) if routable else None
        if residual is not None:
            residual = self._apply_policy(
                run, residual, paths, action, engine, budget
            )
        return residual, paths

    def _plan(self, run: _Run, residual: JobSet, action, budget):
        """Admit and plan as one timed pass, then record the pass.

        The ``scheduling_pass`` span's time is the ``SchedulingPass``
        event's solve time.  Returns the schedule, or ``None`` when
        nothing was admitted.
        """
        kernel = run.kernel
        telemetry = current()
        with telemetry.span("scheduling_pass") as pass_span:
            residual, paths = self._admit(run, residual, action, budget)
            result = None if residual is None else kernel.plan(
                residual, action, path_sets=paths, budget=budget,
                maintenance=self.capacity_profile,
            )
        if result is None:
            return None
        if telemetry.enabled:
            # Per-epoch engine reuse evidence; telemetry only, never
            # journaled, so warm/cold equivalence is untouched.
            telemetry.record(
                "epoch_cache_stats", epoch=kernel.epoch, **kernel.cache_delta()
            )
        kernel.crash_point("post-solve")
        now, epoch = kernel.now, kernel.epoch
        run.events.append(SchedulingPass(
            now, epoch, len(residual), result.zstar, result.overloaded,
            pass_span.elapsed, mean_link_utilization(result.structure, result.x),
        ))
        if result.degraded is not None:
            run.events.append(DegradedSolve(
                now, epoch, result.degraded, result.degraded_reason or ""
            ))
        if self.keep_schedules:
            run.schedules.append((epoch, result))
        if self.fault_schedule is not None:
            run.used_edges.update(
                shared_used_edges(result.structure, result.x, _VOLUME_TOL)
            )
        if self.verify_epochs:
            # Fairness is deliberately unchecked: escalation may stop at
            # ``alpha_max`` with the floor unmet, which is a recorded
            # outcome (``result.meets_fairness``), not a violation.
            self._verify(run, result.structure, result.x, integral=True)
        return result

    def _execute(self, run: _Run, result) -> tuple[float, int]:
        """Deliver the plan's first epoch of slices into the records.

        Volume the kernel voided is a ``DeliveryLost`` event; realized
        volume at or below the simulator's 1e-6 tolerance is ignored.
        Returns ``(delivered volume, completions)`` for the epoch, the
        outcome signal the kernel feeds back to its policy.
        """
        delivery = run.kernel.deliver(result)
        if self.verify_epochs and delivery.voided:
            # Voiding scales grants fractionally, so integrality no longer
            # applies; executed slices hold the worst-case capacity the
            # faults left standing, within the planning capacities.
            cap = result.structure.capacity_grid()
            for j, caps in zip(delivery.executed, delivery.capacity):
                cap[:, j] = np.minimum(cap[:, j], caps)
            self._verify(run, result.structure, delivery.x,
                         integral=False, capacity=cap)
        end = run.kernel.now + self.tau
        grid = result.structure.grid
        delivered, completions = 0.0, 0
        for i, job in enumerate(result.structure.jobs):
            rec = run.records[job.id]
            volume = delivery.volume[i]
            lost = (min(delivery.planned[i], rec.remaining)
                    - min(volume, rec.remaining))
            if lost > _VOLUME_TOL:
                run.events.append(DeliveryLost(
                    end, job.id, lost, "link capacity lost mid-epoch"
                ))
            if volume <= _VOLUME_TOL:
                continue
            volume = min(volume, rec.remaining)
            rec.remaining -= volume
            delivered += volume
            run.events.append(JobProgress(end, job.id, volume, rec.remaining))
            if rec.remaining <= _VOLUME_TOL * max(rec.job.size, 1.0):
                rec.remaining = 0.0
                rec.status = "completed"
                completions += 1
                # The last byte lands at the end of the last executed
                # slice that carried volume for this job.
                rec.completion_time = grid.slice_end(delivery.last_slice[i])
                run.events.append(
                    JobCompleted(rec.completion_time, job.id, rec.met_deadline)
                )
        return delivered, completions

    def _commit_pass(
        self, run: _Run, result, delivered: float, completed: int
    ) -> EpochOutcome:
        """Advance past a scheduling epoch and journal it, between the
        ``pre-commit`` / ``post-commit`` crash points."""
        kernel = run.kernel
        kernel.crash_point("pre-commit")
        epoch = kernel.epoch
        kernel.advance()
        self._commit(run, crash_epoch=epoch)
        kernel.crash_point("post-commit", epoch)
        return EpochOutcome(
            epoch=epoch,
            delivered=delivered,
            completed=completed,
            zstar=result.zstar,
            overloaded=result.overloaded,
            degraded=result.degraded is not None,
        )

    def _commit(self, run: _Run, crash_epoch: int | None = None) -> None:
        """Durably record the loop state reached so far."""
        if run.journal is None:
            return
        kernel = run.kernel
        entry = {
            "epoch": int(kernel.epoch),
            "now": float(kernel.now),
            "fault_idx": int(kernel.fault_idx),
            "records": [
                {"job": rec.job.id, "status": rec.status,
                 "remaining": rec.remaining, "effective_end": rec.effective_end,
                 "completion_time": rec.completion_time}
                for rec in run.records.values()
            ],
            "used_edges": [
                [job_id, sorted(int(e) for e in edges)]
                for job_id, edges in sorted(
                    run.used_edges.items(), key=lambda kv: str(kv[0])
                )
            ],
            "events": [
                {"type": type(ev).__name__, **asdict(ev)}
                for ev in run.events[run.journal_mark:]
            ],
        }
        kernel.commit(run.journal, entry, crash_epoch=crash_epoch)
        run.journal_mark = len(run.events)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
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
        run: _Run,
        residual: JobSet,
        path_sets: dict | None,
        action,
        engine: ModelEngine,
        budget: SolveBudget | None,
    ) -> JobSet | None:
        """Admission action; may reject jobs or extend deadlines in place.

        ``path_sets`` carries the kernel's fault-aware routes (failed
        links banned) so neither the ``reject`` probe nor the ``extend``
        policy's RET search plans over a dead link; both still assume
        installed capacity on the links that are up.  ``action``,
        ``engine`` and ``budget`` are the epoch's decided knobs, the
        engine serving its ``k_paths`` and its solve budget.
        """
        if action.admission_policy == "reduce":
            return residual

        kernel, records, events = run.kernel, run.records, run.events
        now = kernel.now
        if action.admission_policy == "reject":
            admit = (
                admit_greedy if action.rejection == "greedy" else admit_max_prefix
            )
            decision = admit(
                self.network,
                residual,
                kernel.grid_for(residual),
                action.k_paths,
                threshold=1.0,
                key=by_arrival,
                engine=engine,
                budget=budget,
                path_sets=path_sets,
            )
            if decision.degraded:
                events.append(DegradedSolve(
                    now, kernel.epoch, "admission",
                    "solve budget expired during the admission probe",
                ))
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
                k_paths=action.k_paths,
                b_max=self.ret_b_max,
                delta=self.ret_delta,
                path_sets=path_sets,
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

    def _verify(self, run: _Run, structure, x, **checks) -> None:
        """Run the invariant checker on an epoch's allocation; fail fast."""
        from ..verify.checker import verify_assignment

        report = verify_assignment(structure, x, **checks)
        run.verification.append(report)
        report.raise_if_failed()


@dataclass
class _Run:
    """One run's loop state, shared by the epoch phases."""

    kernel: EpochKernel
    horizon: float
    journal: EpochJournal | None
    records: dict
    events: list[Event] = field(default_factory=list)
    #: Edge ids each job's current plan uses (fault runs only).
    used_edges: dict = field(default_factory=dict)
    #: Jobs pending at the start, in arrival order, and the cursor to
    #: the first one not yet arrived.
    arrivals: list[Job] = field(default_factory=list)
    next_arrival: int = 0
    #: Events before this index are already in the journal.
    journal_mark: int = 0
    schedules: list = field(default_factory=list)
    verification: list = field(default_factory=list)
