"""The reservation service: an overload-hardened admission front-end.

:class:`ReservationService` turns the paper's batch controller into a
long-running server.  Requests arrive on a bounded queue
(:meth:`~ReservationService.submit`), are batched at epoch boundaries
(:meth:`~ReservationService.tick`, one call per epoch of length
``tau``), and receive exactly one decision each — accept, reject, or a
negotiated counter-offer derived from the RET end-time-extension
machinery (paper Algorithm 2).

Robustness layers, in tick order:

* **Backpressure / load shedding.**  The pending queue is bounded
  (``queue_limit``); a full queue answers immediately with
  ``Rejected(reason="overload")``.  A token bucket (``rate`` tokens per
  epoch, ``burst`` cap) bounds how many queued requests enter each
  epoch's admission batch; the excess is shed the same way.  Shedding
  is deliberately *memoryless*: a shed request leaves no trace, so the
  shed path is O(1) and the journal never grows with offered load.
* **Decision deadlines.**  The whole tick — admission probe,
  negotiation, epoch schedule — runs under one
  :class:`~repro.lp.solver.SolveBudget` restarted per epoch.  If the
  budget dies mid-admission, exactly the prefix already proven
  admissible is accepted and every other request in the batch is
  rejected with :data:`~repro.service.requests.REASON_DEADLINE`.
  Already-committed reservations are never voided on degraded
  evidence.  The epoch schedule itself rides the PR-4 degradation
  ladder, so a feasible plan is always committed.
* **Crash safety.**  Every tick journals its decisions, lifecycle
  transitions and live residual volumes through
  :class:`~repro.recovery.journal.EpochJournal` (``"batch"`` records)
  *before* any response is released.  :meth:`ReservationService.resume`
  rebuilds an identical commitment book and continues from the next
  tick; re-submitting an already-decided request id replays the
  recorded decision without a second ledger entry.
* **Graceful degradation under faults.**  Link-fault events void the
  reservations whose committed paths they break — visibly, into
  renegotiation: the voided residual re-enters the next batch under a
  derived id (``<id>~v<n>``) and is re-admitted, counter-offered a
  later window, or explicitly rejected.  The exception is a voided
  reservation whose window can no longer hold a slice: like expiry,
  voiding is then terminal.  It keeps its undelivered residual, counts
  as ``voided`` in the stats, and its journaled ``voided`` transition
  is its only record; no request re-enters the batch and no
  ``Rejected`` is issued.

Time is *virtual*: tick ``e`` decides at ``now = e * tau``.  Decision
outcomes depend only on request arrival order and epochs — never on
wall clocks — which is what makes crash+resume byte-identical (see
``docs/service.md``).  Wall time appears only in SLO latency stats and
in the optional solve budget (whose journaled decisions are durable
even though re-deciding under a budget is not bit-reproducible).
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from ..control.kernel import (
    EpochKernel,
    EpochOutcome,
    base_action_for,
    check_journal_safe,
    decode_run_config,
    encode_run_config,
    used_edges,
    window_closed,
)
from ..core.admission import admit_max_prefix
from ..core.ret import solve_ret
from ..errors import (
    BudgetExceededError,
    ScheduleError,
    ValidationError,
)
from ..faults.schedule import FaultSchedule
from ..lp.solver import SolveBudget, SolveResilience
from ..network.graph import Network
from ..obs import current
from ..recovery.crash import CrashInjector
from ..recovery.journal import EpochJournal, read_journal
from ..workload.jobs import Job, JobSet
from .book import CommitmentBook, Reservation
from .requests import (
    REASON_DEADLINE,
    REASON_OVERLOAD,
    REASON_STALE,
    Accepted,
    Decision,
    DecisionHandle,
    Negotiated,
    Rejected,
    ReservationRequest,
    decision_from_dict,
    decision_to_dict,
    parse_request,
    request_to_job,
)
from .slo import ServiceStats

__all__ = ["ReservationService"]

_EPS = 1e-9
_VOLUME_TOL = 1e-9


class ReservationService:
    """Async, crash-safe admission front-end over the epoch controller.

    Parameters
    ----------
    network:
        The optical network reservations are scheduled over.
    tau:
        Epoch length; tick ``e`` decides at virtual time ``e * tau``.
    slice_length:
        Scheduling-grid slice length.
    k_paths:
        Candidate paths per origin-destination pair.
    queue_limit:
        Bound on undecided queued requests; submissions beyond it are
        shed immediately with ``Rejected(reason="overload")``.
    rate, burst:
        Token-bucket admission guard: ``rate`` requests may enter the
        batch per epoch, with bursts up to ``burst``.
    journal:
        Optional path for the write-ahead batch journal (crash safety).
    solve_budget:
        Optional per-epoch wall-clock budget for the tick's solves.
    resilience:
        Optional retry policy applied to *every* solve the service
        issues — the scheduler's stages, the RET counter-offers and the
        admission probes alike (it is set once, on the run's engines).
        A transient backend failure then costs a retry, not the whole
        tick.
    crash_injector:
        Deterministic process-death injection at the service crash
        points (:data:`~repro.recovery.crash.SERVICE_CRASH_POINTS`).
    fault_schedule:
        Link-fault timeline; faults void affected reservations into
        renegotiation at the next tick boundary.
    renegotiate_limit:
        How many derived renegotiation hops a voided reservation gets
        before it is explicitly rejected.
    verify_solutions:
        When true, every raw solver solution is checked by
        :func:`~repro.verify.checker.verify_schedule` before it is
        rounded or committed — the untrusted-backend guard used by the
        chaos engine (``docs/chaos.md``).
    journal_fault_injector:
        Optional callable ``(path, content)`` installed on the batch
        journal; may raise :class:`OSError` or return torn replacement
        content to simulate write failures (see
        :class:`~repro.chaos.inject.JournalFaultInjector`).
    """

    #: The constructor arguments the journal header records (besides the
    #: network, solve budget, resilience and fault timeline).
    _JOURNAL_FIELDS = (
        "tau", "slice_length", "k_paths", "queue_limit", "rate", "burst",
        "ret_b_max", "ret_delta", "renegotiate_limit", "warm_start",
        "verify_solutions",
    )

    def __init__(
        self,
        network: Network,
        tau: float = 1.0,
        slice_length: float = 1.0,
        k_paths: int = 4,
        queue_limit: int = 1024,
        rate: float = 64.0,
        burst: float | None = None,
        journal: str | Path | None = None,
        solve_budget: SolveBudget | None = None,
        resilience: SolveResilience | None = None,
        crash_injector: CrashInjector | None = None,
        fault_schedule: FaultSchedule | None = None,
        ret_b_max: float = 10.0,
        ret_delta: float = 0.1,
        renegotiate_limit: int = 3,
        warm_start: bool = True,
        verify_solutions: bool = False,
        journal_fault_injector=None,
        control_policy=None,
    ) -> None:
        if tau <= 0:
            raise ValidationError(f"tau must be positive, got {tau}")
        if k_paths < 1:
            raise ValidationError(f"k_paths must be >= 1, got {k_paths}")
        if queue_limit < 1:
            raise ValidationError(
                f"queue_limit must be at least 1, got {queue_limit}"
            )
        if rate <= 0:
            raise ValidationError(f"rate must be positive, got {rate}")
        burst = float(rate) if burst is None else float(burst)
        if burst < 1:
            raise ValidationError(f"burst must be at least 1, got {burst}")
        if renegotiate_limit < 0:
            raise ValidationError(
                f"renegotiate_limit must be >= 0, got {renegotiate_limit}"
            )
        self.network = network
        self.tau = float(tau)
        self.slice_length = float(slice_length)
        self.k_paths = int(k_paths)
        self.queue_limit = int(queue_limit)
        self.rate = float(rate)
        self.burst = burst
        self.solve_budget = solve_budget
        self.resilience = resilience
        self.crash_injector = crash_injector
        self.fault_schedule = fault_schedule
        self.ret_b_max = float(ret_b_max)
        self.ret_delta = float(ret_delta)
        self.renegotiate_limit = int(renegotiate_limit)
        self.warm_start = warm_start
        self.verify_solutions = bool(verify_solutions)
        self.journal_fault_injector = journal_fault_injector
        self.stats = ServiceStats()

        check_journal_safe(control_policy, journal)
        self.control_policy = control_policy
        # The shared epoch-control kernel: owns the epoch counter, the
        # fault cursor, crash points, budget restarts, journal commits
        # and the planner cache.  The service's ``epoch`` is a view onto
        # it.
        # alpha: the Scheduler's default fairness slack.
        self._kernel = EpochKernel.for_driver(
            self, base_action_for(alpha=0.1, k_paths=self.k_paths)
        )
        self.book = CommitmentBook()
        #: Undecided external requests: key -> (request, handle).
        self._pending: dict[str, tuple[ReservationRequest, DecisionHandle]] = {}
        #: Renegotiation work carried to the next tick (journaled).
        self._internal: list[dict] = []
        self._bucket_tokens = burst
        self._journal: EpochJournal | None = None
        self.journal_path = Path(journal) if journal is not None else None
        if self.journal_path is not None:
            self._journal = EpochJournal.create(
                self.journal_path, self._journal_header(), entry_kind="batch"
            )
            # Attach after create: the header write itself must succeed.
            self._journal.fault_injector = self.journal_fault_injector

    # ------------------------------------------------------------------
    # Submission (the bounded front door)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Next tick's epoch index (owned by the control kernel)."""
        return self._kernel.epoch

    @epoch.setter
    def epoch(self, value: int) -> None:
        self._kernel.epoch = int(value)
        self._kernel.now = int(value) * self.tau

    @property
    def now(self) -> float:
        """Virtual time of the *next* tick's decisions."""
        return self.epoch * self.tau

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def submit(self, request: ReservationRequest | dict) -> DecisionHandle:
        """Enqueue one request; returns a handle its decision resolves.

        Never raises for bad input and never blocks: validation
        failures, duplicate undecided ids and overload all resolve the
        handle immediately with an explicit :class:`Rejected`.  A
        request whose id is already *decided* resolves immediately with
        the recorded decision (idempotent resubmission — the crash
        recovery path).
        """
        self.stats.count("submitted")
        if not isinstance(request, ReservationRequest):
            try:
                request = parse_request(request, self.network)
            except ValidationError as exc:
                self.stats.count("invalid")
                rid = request.get("id", "?") if isinstance(request, dict) else "?"
                return DecisionHandle.resolved(
                    Rejected(rid, self.epoch, f"invalid request: {exc}")
                )
        key = request.key
        recorded = self.book.decided(key)
        if recorded is not None:
            self.stats.count("duplicate_submissions")
            return DecisionHandle.resolved(decision_from_dict(recorded))
        if key in self._pending:
            self.stats.count("duplicate_submissions")
            return self._pending[key][1]
        if len(self._pending) >= self.queue_limit:
            self.stats.count("shed")
            return DecisionHandle.resolved(
                Rejected(request.id, self.epoch, REASON_OVERLOAD)
            )
        handle = DecisionHandle()
        self._pending[key] = (request, handle)
        return handle

    # ------------------------------------------------------------------
    # The tick: one epoch of batched decisions
    # ------------------------------------------------------------------
    async def tick(self) -> list[Decision]:
        """Run one epoch: batch, decide, journal, respond.

        Returns the decisions released this tick (external and
        renegotiation-derived).  Raises
        :class:`~repro.recovery.crash.SimulatedCrash` when an armed
        injector fires — after which this instance is dead, exactly
        like the process it stands in for; continue via
        :meth:`resume`.
        """
        now = self.now
        epoch = self.epoch
        self._kernel.crash_point("pre-batch", epoch)
        self._kernel.restart_budget()

        transitions: list[dict] = []
        self._detect_faults(now, transitions)
        self._expire_stale(now, transitions)

        batch, shed_handles = self._collect_batch(now)
        decisions, degraded = self._decide(batch, now, epoch, transitions)

        # The kernel's decide point: the control policy (if any) picks
        # this tick's re-plan knobs from the observed backlog.  The
        # admission pipeline above is deliberately outside the policy
        # surface — decisions are journaled commitments.
        obs = None
        if self._kernel.wants_observation:
            active = self.book.active()
            obs = self._kernel.observe(
                backlog=len(active),
                total_remaining=sum(r.remaining for r in active),
                queue_depth=len(self._pending),
            )
        action = self._kernel.decide(obs)
        delivered, completed = self._schedule_and_execute(
            now, action, transitions
        )
        self._kernel.feedback(
            obs, action,
            EpochOutcome(epoch=epoch, delivered=delivered, completed=completed),
        )

        self._kernel.crash_point("post-solve", epoch)
        self._kernel.commit(
            self._journal,
            self._journal_entry(epoch, now, decisions, transitions)
            if self._journal is not None
            else None,
        )
        self._kernel.crash_point("pre-respond", epoch)

        # Responses only after the journal holds the decisions: a crash
        # from here on re-delivers them from the ledger, never re-decides.
        for handle in shed_handles:
            handle.release()
            if handle.latency is not None:
                self.stats.observe_latency(handle.latency)
        for decision in decisions:
            key = str(decision.request_id)
            self.stats.count("decided")
            self.stats.count(
                {"accept": "accepted", "reject": "rejected",
                 "negotiate": "negotiated"}[decision.kind]
            )
            if degraded.get(key):
                self.stats.count("degraded_decisions")
            entry = self._pending.pop(key, None)
            if entry is not None:
                entry[1].resolve(decision)
                if entry[1].latency is not None:
                    self.stats.observe_latency(entry[1].latency)
        self._kernel.crash_point("post-journal", epoch)
        self.epoch = epoch + 1
        self.stats.count("ticks")
        return decisions

    @property
    def idle(self) -> bool:
        """Nothing queued, carried, or committed-but-unfinished."""
        return (
            not self._pending
            and not self._internal
            and not self.book.active()
        )

    def close(self) -> None:
        """Release the journal's append lock (normal shutdown)."""
        if self._journal is not None:
            self._journal.close()

    # ------------------------------------------------------------------
    # Tick stages
    # ------------------------------------------------------------------
    def _detect_faults(self, now: float, transitions: list[dict]) -> None:
        """Advance the fault cursor; void reservations on broken paths.

        The cursor advance is the kernel's (shared with the simulator);
        voiding broken commitments into renegotiation is the service's
        own reaction.
        """
        detection = self._kernel.detect_faults()
        if not detection.affected:
            return
        for key in sorted(self.book.reservations):
            res = self.book.reservations[key]
            if res.status != "accepted" or res.done:
                continue
            if res.used_edges & detection.affected:
                self._void(key, res, now, transitions,
                           "link fault broke the committed path")

    def _void(
        self,
        key: str,
        res: Reservation,
        now: float,
        transitions: list[dict],
        why: str,
    ) -> None:
        """Void a commitment into renegotiation.

        A reservation whose window can no longer hold one slice is only
        marked ``voided``: the residual stays on it, as on expiry.
        """
        res.status = "voided"
        transitions.append({"id": res.job.id, "status": "voided",
                            "reason": why})
        self.stats.count("voided")
        if window_closed(res.job.start, res.job.end, now, self.slice_length):
            return  # window already gone; expiry semantics, recorded above
        origin = self._origin_of(key)
        self._internal.append({
            "id": self._derived_id(origin),
            "origin": origin,
            "source": res.job.source,
            "dest": res.job.dest,
            "size": res.remaining,
            "start": max(res.job.start, now),
            "end": res.job.end,
            "attempt": 1,
        })

    @staticmethod
    def _origin_of(key: str) -> str:
        return key.split("~v", 1)[0]

    def _derived_id(self, origin: str) -> str:
        n = 1
        while True:
            candidate = f"{origin}~v{n}"
            if self.book.decided(candidate) is None and all(
                e["id"] != candidate for e in self._internal
            ):
                return candidate
            n += 1

    def _expire_stale(self, now: float, transitions: list[dict]) -> None:
        """Expire commitments whose window can no longer hold one slice.

        Applies the shared
        :func:`~repro.control.kernel.window_closed` predicate to the
        *committed* end time — the service never extends deadlines in
        place (a voided or renegotiated reservation gets a fresh
        derived commitment instead), so unlike the simulator there is
        no effective-end to consult and no ``final`` sweep.
        """
        for key in sorted(self.book.reservations):
            res = self.book.reservations[key]
            if res.status != "accepted" or res.done:
                continue
            if window_closed(res.job.start, res.job.end, now,
                             self.slice_length):
                res.status = "expired"
                transitions.append({"id": res.job.id, "status": "expired"})
                self.stats.count("expired")

    def _collect_batch(
        self, now: float
    ) -> tuple[list[dict], list[DecisionHandle]]:
        """Internal renegotiations plus bucket-limited external arrivals.

        Returns the batch entries (dicts with a ``job``) and the
        handles of requests shed this tick; sheds are resolved only
        after the journal commit, with everything else.
        """
        batch: list[dict] = []
        shed: list[DecisionHandle] = []
        for entry in self._internal:
            dead = window_closed(entry["start"], entry["end"], now,
                                 self.slice_length)
            batch.append({**entry, "internal": True,
                          "job": None if dead else Job(
                              id=entry["id"], source=entry["source"],
                              dest=entry["dest"], size=entry["size"],
                              start=max(entry["start"], now), end=entry["end"],
                          )})
        self._internal = []

        self._bucket_tokens = min(self.burst, self._bucket_tokens + self.rate)
        eligible = sorted(
            (k for k, (req, _h) in self._pending.items()
             if req.arrival <= now + _EPS),
            key=lambda k: (self._pending[k][0].arrival, k),
        )
        for key in eligible:
            request, handle = self._pending[key]
            first_boundary = (
                math.ceil(request.arrival / self.tau - _EPS) * self.tau
            )
            if first_boundary < now - _EPS:
                # Post-crash resubmission of a request whose decision
                # boundary committed without it: it was shed then (a
                # decision would be in the ledger), so shed it again.
                del self._pending[key]
                handle.stage(Rejected(request.id, self.epoch, REASON_STALE))
                shed.append(handle)
                self.stats.count("shed")
                continue
            if self._bucket_tokens < 1.0:
                del self._pending[key]
                handle.stage(
                    Rejected(request.id, self.epoch, REASON_OVERLOAD)
                )
                shed.append(handle)
                self.stats.count("shed")
                continue
            self._bucket_tokens -= 1.0
            dead = window_closed(request.start, request.end, now,
                                 self.slice_length)
            batch.append({"id": request.id, "internal": False, "attempt": 0,
                          "job": None if dead
                          else request_to_job(request, now)})
        return batch, shed

    def _decide(
        self,
        batch: list[dict],
        now: float,
        epoch: int,
        transitions: list[dict],
    ) -> tuple[list[Decision], dict[str, bool]]:
        """Admission + negotiation for one batch; commits accepts."""
        decisions: list[Decision] = []
        degraded_mark: dict[str, bool] = {}
        live = []
        for entry in batch:
            if entry["job"] is None:
                # The window closed before a decision epoch could see it.
                self._record(decisions, Rejected(
                    entry["id"], epoch,
                    "window expired before a decision could be made",
                ))
            else:
                live.append(entry)
        batch = live
        if not batch:
            return decisions, degraded_mark

        committed = {
            str(r.job.id): r for r in self.book.active()
        }
        committed_jobs = [
            self._residual_job(committed[k], now) for k in sorted(committed)
        ]
        batch_jobs = [e["job"] for e in batch]
        all_jobs = committed_jobs + batch_jobs
        order = {str(j.id): i for i, j in enumerate(all_jobs)}
        engine = self._kernel.engine_for(self.k_paths)
        grid = self._kernel.grid_for(all_jobs)
        path_sets = self._kernel.routes(all_jobs, engine)

        decision = admit_max_prefix(
            self.network,
            JobSet(all_jobs),
            grid,
            self.k_paths,
            threshold=1.0,
            key=lambda job: (order[str(job.id)],),
            engine=engine,
            budget=self.solve_budget,
            path_sets=path_sets,
        )
        admitted_ids = {str(j.id) for j in decision.admitted}

        # Committed reservations pushed out by the probe: voided into
        # renegotiation — but only on *non-degraded* evidence.  When
        # the budget died mid-search, commitments stand.
        if not decision.degraded:
            for key in sorted(committed):
                if key not in admitted_ids:
                    self._void(key, committed[key], now, transitions,
                               "admission re-plan no longer fits commitment")

        negotiate: list[dict] = []
        for entry in batch:
            key = str(entry["id"])
            job = entry["job"]
            if key in admitted_ids:
                self._accept(entry, job, epoch, decisions)
                continue
            if decision.degraded:
                # Budget died before this request was proven admissible:
                # a deterministic reject — never an unproven accept,
                # never a stall.
                degraded_mark[key] = True
                self._record(decisions, Rejected(
                    entry["id"], epoch, REASON_DEADLINE
                ))
                continue
            negotiate.append(entry)

        if negotiate:
            self._negotiate(negotiate, committed_jobs, epoch, path_sets,
                            decisions)
        return decisions, degraded_mark

    def _ledger_dict(self, decision: Decision) -> dict:
        """The ledger/journal form; accepts carry their full commitment."""
        data = decision_to_dict(decision)
        if isinstance(decision, Accepted):
            job = self.book.reservations[str(decision.request_id)].job
            data["source"] = job.source
            data["dest"] = job.dest
            data["size"] = job.size
        return data

    def _record(self, decisions: list[Decision], decision: Decision) -> None:
        """Append a decision and pin it in the ledger immediately."""
        decisions.append(decision)
        self.book.record(str(decision.request_id),
                         self._ledger_dict(decision))

    def _accept(
        self, entry: dict, job: Job, epoch: int, decisions: list[Decision]
    ) -> None:
        self.book.reservations[str(entry["id"])] = Reservation(
            job=job, remaining=job.size
        )
        self._record(decisions,
                     Accepted(entry["id"], epoch, job.start, job.end))
        if entry.get("internal"):
            self.stats.count("renegotiations")

    def _negotiate(
        self,
        entries: list[dict],
        committed_jobs: list[Job],
        epoch: int,
        path_sets,
        decisions: list[Decision],
    ) -> None:
        """Counter-offer later windows via RET; reject when none exists.

        The probe models each negotiating job as it will look at the
        *next* epoch boundary — the earliest moment the requester can
        act on the offer — so a counter-offer is still feasible when it
        comes back.  (Committed jobs keep their current residuals,
        which only makes the probe conservative: by next epoch they
        will have delivered more, not less.)
        """
        next_now = self.now + self.tau
        probes: list[Job] = []
        for entry in entries:
            job = entry["job"]
            start = max(job.start, next_now)
            end = job.end
            if end < start + self.slice_length - _EPS:
                # The remaining window holds no whole slice by the time
                # the requester can respond; extend from the smallest
                # schedulable window instead.
                end = start + self.slice_length
            probes.append(replace(job, start=start, end=end, arrival=start))
        jobs = committed_jobs + probes
        b_final: float | None = None
        try:
            ret = solve_ret(
                self.network,
                JobSet(jobs),
                slice_length=self.slice_length,
                k_paths=self.k_paths,
                b_max=self.ret_b_max,
                delta=self.ret_delta,
                path_sets=path_sets,
                budget=self.solve_budget,
                engine=self._kernel.engine_for(self.k_paths),
            )
            b_final = max(ret.b_final, self.ret_delta)
        except (ScheduleError, BudgetExceededError):
            b_final = None

        for entry, probe in zip(entries, probes):
            job = entry["job"]
            if b_final is None:
                self._record(decisions, Rejected(
                    entry["id"], epoch,
                    "insufficient capacity (Z* < 1); "
                    "no completing end-time extension found",
                ))
                continue
            proposed_end = (1.0 + b_final) * probe.end
            offer = Negotiated(
                entry["id"], epoch, job.start, proposed_end,
                "insufficient capacity in the requested window; "
                "a later end time fits",
            )
            self._record(decisions, offer)
            if entry.get("internal") and entry["attempt"] < self.renegotiate_limit:
                # The service renegotiates voided commitments on the
                # requester's behalf: take the counter-offer and try
                # again next tick, up to the hop limit.
                origin = entry["origin"]
                self._internal.append({
                    "id": self._derived_id(origin),
                    "origin": origin,
                    "source": job.source,
                    "dest": job.dest,
                    "size": job.size,
                    "start": job.start,
                    "end": proposed_end,
                    "attempt": entry["attempt"] + 1,
                })

    @staticmethod
    def _residual_job(res: Reservation, now: float) -> Job:
        start = max(res.job.start, now)
        return replace(res.job, size=res.remaining, start=start,
                       arrival=start)

    def _schedule_and_execute(
        self, now: float, action, transitions: list[dict]
    ) -> tuple[float, int]:
        """Plan the committed set and deliver the first epoch of slices.

        ``action`` holds the tick's re-plan knobs (the kernel's
        decision).  Delivery counts only what the kernel's ``deliver``
        says the links carried; completions go onto ``transitions``.
        Returns the tick's ``(delivered volume, completions)`` — the
        outcome signal fed back to the kernel's policy.
        """
        delivered, completed = 0.0, 0
        active = {str(r.job.id): r for r in self.book.active()}
        residual = [
            self._residual_job(active[k], now) for k in sorted(active)
            if not window_closed(active[k].job.start, active[k].job.end, now,
                                 self.slice_length)
        ]
        if not residual:
            return delivered, completed
        kernel = self._kernel
        try:
            result = kernel.plan(
                JobSet(residual), action,
                path_sets=kernel.routes(
                    residual, kernel.engine_for(action.k_paths)
                ),
                budget=kernel.budget_for(action),
            )
        except ScheduleError:
            # Defensive: no feasible plan this tick (e.g. every path of a
            # commitment failed).  Deliver nothing; faults/expiry will
            # void or expire the affected reservations visibly.
            return delivered, completed
        if result.degraded is not None:
            current().count("service_degraded_solves")
        delivery = kernel.deliver(result)
        # The service's volume tolerance is the tight 1e-9 (ledger
        # residuals are exact), versus the simulator's looser 1e-6.
        used = used_edges(result.structure, result.x, _VOLUME_TOL)
        for job, volume in zip(result.structure.jobs, delivery.volume):
            res = active[str(job.id)]
            res.used_edges = used.get(job.id, frozenset())
            if volume <= _VOLUME_TOL:
                continue
            delivered += min(volume, res.remaining)
            res.remaining = max(0.0, res.remaining - volume)
            if res.done:
                res.remaining = 0.0
                res.status = "completed"
                completed += 1
                transitions.append({"id": res.job.id, "status": "completed"})
                self.stats.count("completed")
        return delivered, completed

    # ------------------------------------------------------------------
    # Journal format
    # ------------------------------------------------------------------
    def _journal_header(self) -> dict:
        """The batch journal's immutable run description (first line)."""
        return {
            "service": True,
            **encode_run_config(self, self._JOURNAL_FIELDS),
        }

    def _journal_entry(
        self,
        epoch: int,
        now: float,
        decisions: list[Decision],
        transitions: list[dict],
    ) -> dict:
        """One committed tick: decisions, transitions, live residuals."""
        book = self.book
        return {
            "epoch": int(epoch),
            "now": float(now),
            "fault_idx": int(self._kernel.fault_idx),
            "bucket_tokens": float(self._bucket_tokens),
            # The enriched ledger dicts (accepts carry endpoints/size):
            # resume rebuilds the ledger byte-for-byte from these.
            "decisions": [
                dict(book.decided(str(d.request_id))) for d in decisions
            ],
            "transitions": transitions,
            "active": [
                [key, res.remaining, sorted(res.used_edges)]
                for key, res in sorted(book.reservations.items())
                if res.status == "accepted" and not res.done
            ],
            "internal": list(self._internal),
        }

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        path: str | Path,
        crash_injector: CrashInjector | None = None,
        solve_budget: SolveBudget | None = None,
        journal_fault_injector=None,
    ) -> "ReservationService":
        """Rebuild a service from its batch journal and carry on.

        Replays every committed tick's decisions and transitions into a
        fresh commitment book, overlays the last tick's residual
        volumes and carried renegotiations, and reopens the journal for
        appending (healing a torn tail).  The returned service is ready
        for the tick after the last committed one; requesters re-submit
        undecided requests and receive either the journaled decision
        (already-decided ids, replayed verbatim) or a fresh one.

        ``solve_budget`` overrides the journaled budget configuration
        (pass ``None`` to restore the recorded one).
        """
        replay = read_journal(path, entry_kind="batch")
        header = replay.header
        if not header.get("service"):
            raise ValidationError(
                f"journal at {path} is a simulator journal, not a "
                "reservation-service journal; use Simulation.resume"
            )
        network, config = decode_run_config(header, cls._JOURNAL_FIELDS, path)
        if solve_budget is not None:
            config["solve_budget"] = solve_budget
        service = cls(network, **config, crash_injector=crash_injector)
        for entry in replay.entries:
            for data in entry["decisions"]:
                decision = decision_from_dict(data)
                key = str(decision.request_id)
                service.book.record(key, dict(data))
                if isinstance(decision, Accepted):
                    job = Job(
                        id=decision.request_id,
                        source=data["source"],
                        dest=data["dest"],
                        size=float(data["size"]),
                        start=decision.start,
                        end=decision.end,
                    )
                    service.book.reservations[key] = Reservation(
                        job=job, remaining=job.size
                    )
            for t in entry["transitions"]:
                res = service.book.reservations.get(str(t["id"]))
                if res is None:
                    continue
                res.status = str(t["status"])
                if res.status == "completed":
                    res.remaining = 0.0
            for key, remaining, edges in entry["active"]:
                res = service.book.reservations[key]
                res.remaining = float(remaining)
                res.used_edges = frozenset(int(e) for e in edges)
        last = replay.last_entry
        if last is not None:
            service.epoch = int(last["epoch"]) + 1
            service._kernel.fault_idx = int(last["fault_idx"])
            service._bucket_tokens = float(last["bucket_tokens"])
            service._internal = [dict(e) for e in last["internal"]]
        service._journal = EpochJournal.open_existing(path, entry_kind="batch")
        service._journal.fault_injector = journal_fault_injector
        service.journal_fault_injector = journal_fault_injector
        service.journal_path = Path(path)
        current().count("journal_resumes")
        return service
