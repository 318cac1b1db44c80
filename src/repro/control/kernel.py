"""The shared epoch-control kernel: one observe→decide→commit contract.

The paper's controller is a single periodic loop — wake up every
``tau``, observe the world, decide this epoch's knobs, solve, commit —
yet the repo grew two independent copies of that loop:
:class:`repro.sim.simulator.Simulation` (the batch simulator) and
:class:`repro.service.core.ReservationService` (the online admission
front-end).  Each carried its own fault detection, stale-window expiry,
crash points, journaling and used-edge bookkeeping.  This module is the
extraction: :class:`EpochKernel` owns the epoch-step contract and the
shared state it advances (virtual time, epoch counter, fault cursor),
and both drivers — plus the chaos runner's sim/serve targets — ride it.

The contract, per epoch:

* :meth:`EpochKernel.observe` assembles an :class:`EpochObservation`
  from kernel state (time, epoch, fault cursor) and driver state
  (backlog, residual volume, queue depth, cache/budget telemetry);
* :meth:`EpochKernel.decide` asks the attached
  :class:`~repro.control.policies.ControlPolicy` for an
  :class:`EpochAction` — the per-epoch knobs (fairness ``alpha`` start
  and escalation cap, path-set size ``k_paths``, admission policy,
  solve-budget split) that the driver applies to its scheduling pass;
* :meth:`EpochKernel.commit` durably records the epoch (journal append
  with the mid-journal torn-write crash point) and
  :meth:`EpochKernel.advance` moves the clock.

With no policy attached (``policy=None``) the kernel short-circuits:
``decide`` returns the driver's configured base action without building
an observation, so the default path pays nothing for the surface.  With
:class:`~repro.control.policies.FixedPolicy` the full contract runs and
the outputs are byte-identical — property-tested against pre-refactor
golden journals in ``tests/test_control_equivalence.py``.

The module-level helpers (:func:`window_closed`, :func:`used_edges`,
:func:`advance_fault_cursor`, the journal header/entry builders) are the
de-duplicated bodies of the methods the two drivers used to copy from
each other; both import them from here now.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..errors import ValidationError
from ..faults.events import FaultEvent, LinkDown, WavelengthDegrade
from ..obs import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..faults.schedule import FaultSchedule
    from ..lp.solver import SolveBudget
    from ..recovery.crash import CrashInjector
    from ..recovery.journal import EpochJournal

__all__ = [
    "EpochAction",
    "EpochObservation",
    "EpochOutcome",
    "EpochKernel",
    "FaultDetection",
    "base_action_for",
    "advance_fault_cursor",
    "window_closed",
    "used_edges",
    "solver_config_dict",
    "simulation_journal_header",
    "simulation_journal_entry",
    "service_journal_header",
    "service_journal_entry",
]

_EPS = 1e-9

#: Telemetry counters snapshotted into every observation so adaptive
#: policies can react to engine-reuse behaviour (cache starvation is a
#: signal that ``k_paths`` churn is defeating the delta layer).
CACHE_COUNTERS = (
    "structure_cache_hits",
    "structure_patch_hits",
    "cold_builds",
    "memo_hits",
    "ret_witness_hits",
)


# ----------------------------------------------------------------------
# The action / observation / outcome triple
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EpochAction:
    """One epoch's control knobs — what ``decide`` returns.

    Attributes
    ----------
    alpha:
        Stage-2 fairness slack to *start* the epoch's escalation at.
    alpha_step, alpha_max:
        Remark-1 escalation step and cap for this epoch.
    k_paths:
        Candidate paths per origin-destination pair.
    admission_policy:
        Overload action for the batch simulator (``"reject"``,
        ``"reduce"`` or ``"extend"``); the reservation service has its
        own admission pipeline and ignores this knob.
    rejection:
        Admission algorithm variant under ``"reject"``.
    budget_scale:
        Multiplier on the configured per-epoch solve budget (``1.0``
        keeps the configured allowance; ``0.5`` halves it, ``2.0``
        doubles it).  Ignored when the driver runs without a budget.
    """

    alpha: float = 0.1
    alpha_step: float = 0.1
    alpha_max: float = 0.5
    k_paths: int = 4
    admission_policy: str = "reduce"
    rejection: str = "prefix"
    budget_scale: float = 1.0

    def validate(self) -> "EpochAction":
        """Raise :class:`ValidationError` on out-of-range knobs."""
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"action alpha must be in [0, 1], got {self.alpha}")
        if self.alpha_step < 0 or self.alpha_max < self.alpha or self.alpha_max > 1.0:
            raise ValidationError(
                "action needs 0 <= alpha_step and alpha <= alpha_max <= 1, "
                f"got step={self.alpha_step}, max={self.alpha_max}"
            )
        if self.k_paths < 1:
            raise ValidationError(f"action k_paths must be >= 1, got {self.k_paths}")
        if self.admission_policy not in ("reject", "reduce", "extend"):
            raise ValidationError(
                f"unknown admission policy {self.admission_policy!r}"
            )
        if self.rejection not in ("prefix", "greedy"):
            raise ValidationError(f"unknown rejection variant {self.rejection!r}")
        if self.budget_scale <= 0:
            raise ValidationError(
                f"action budget_scale must be > 0, got {self.budget_scale}"
            )
        return self


@dataclass(frozen=True)
class EpochObservation:
    """What the controller can see at a decision point.

    Everything here is cheap, deterministic state the kernel or driver
    already tracks — no extra solves are paid to observe.

    Attributes
    ----------
    now, epoch:
        Virtual time and epoch index of the decision.
    backlog:
        Unfinished admitted jobs / reservations.
    total_remaining:
        Undelivered volume across the backlog, in job units.
    queue_depth:
        Requests waiting outside the admitted set (future arrivals for
        the simulator, pending submissions for the service).
    delivered_volume:
        Cumulative volume delivered so far.
    fault_idx:
        Position of the fault cursor in the fault timeline.
    failed_edges:
        Directed edges currently failed (0 when no fault schedule).
    overloaded:
        The previous scheduling pass's overload classification
        (``None`` before the first pass).
    last_zstar:
        The previous pass's maximum concurrent throughput ``Z*``.
    budget_wall_s:
        Configured per-epoch solve budget in seconds (``None`` without
        a budget).
    cache:
        Snapshot of the engine-reuse telemetry counters
        (:data:`CACHE_COUNTERS`).
    base:
        The driver's configured knobs — what
        :class:`~repro.control.policies.FixedPolicy` returns verbatim.
    """

    now: float
    epoch: int
    backlog: int
    total_remaining: float
    queue_depth: int
    delivered_volume: float
    fault_idx: int
    failed_edges: int
    overloaded: bool | None
    last_zstar: float | None
    budget_wall_s: float | None
    cache: dict
    base: EpochAction


@dataclass(frozen=True)
class EpochOutcome:
    """What one epoch's pass achieved — the policy's feedback signal.

    Attributes
    ----------
    epoch:
        The epoch the outcome belongs to.
    delivered:
        Volume delivered during the epoch (the step reward the
        gym-style environment exposes).
    completed:
        Jobs that finished during the epoch.
    expired:
        Jobs whose windows closed undelivered during the epoch.
    zstar:
        The pass's ``Z*`` (``None`` when nothing was scheduled).
    overloaded:
        The pass's overload classification.
    degraded:
        Whether the solve-budget degradation ladder fired.
    """

    epoch: int
    delivered: float = 0.0
    completed: int = 0
    expired: int = 0
    zstar: float | None = None
    overloaded: bool | None = None
    degraded: bool = False


@dataclass(frozen=True)
class FaultDetection:
    """One epoch boundary's worth of newly struck fault events.

    ``events`` preserves timeline order (downs, degrades *and*
    repairs); ``affected`` collects the directed edge ids of capacity
    *lost* (downs and degrades only — a repair restores capacity and
    bans nothing).
    """

    events: tuple[FaultEvent, ...]
    affected: frozenset[int]


def advance_fault_cursor(
    fault_schedule: "FaultSchedule", fault_idx: int, now: float
) -> tuple[int, FaultDetection]:
    """Advance past every fault event at or before ``now``.

    Returns the new cursor position and the detection record.  This is
    the shared core of the two drivers' fault detection: the simulator
    additionally translates ``events`` into its detection event log
    (``LinkFailed`` / ``LinkDegraded`` / ``LinkRestored``), the service
    uses ``affected`` to void broken commitments.
    """
    events: list[FaultEvent] = []
    affected: set[int] = set()
    while (
        fault_idx < len(fault_schedule.events)
        and fault_schedule.events[fault_idx].time <= now + _EPS
    ):
        ev = fault_schedule.events[fault_idx]
        events.append(ev)
        if isinstance(ev, (LinkDown, WavelengthDegrade)):
            affected.update(fault_schedule.edges_of(ev))
        fault_idx += 1
    return fault_idx, FaultDetection(tuple(events), frozenset(affected))


def window_closed(
    start: float, end: float, now: float, slice_length: float
) -> bool:
    """Whether ``[max(start, now), end]`` can no longer hold one slice.

    The single stale-window predicate both drivers share.  The callers
    apply it to different deadlines — the simulator to the *effective*
    (possibly RET-extended) end time, the service to the committed
    job's end — and ``tests/test_control.py`` pins each caller's
    semantics explicitly.
    """
    return end - max(start, now) < slice_length - _EPS


def used_edges(structure, x, tol: float) -> dict:
    """Edge ids each job's schedule actually uses, keyed by raw job id.

    ``tol`` is the caller's volume tolerance (the simulator's is looser
    than the service's); entries below it are ignored.
    """
    x = np.asarray(x)
    used: dict = {}
    for c in np.flatnonzero(x > tol):
        i = int(structure.col_job[c])
        path = structure.paths[i][int(structure.col_path[c])]
        used.setdefault(structure.jobs[i].id, set()).update(path.edge_ids)
    return {job_id: frozenset(eids) for job_id, eids in used.items()}


def solver_config_dict(solve_budget, resilience) -> dict:
    """The journal-header fragment describing the solve configuration."""
    return {
        "solve_budget": (
            {
                "wall_time_s": solve_budget.wall_time_s,
                "min_backend_time_s": solve_budget.min_backend_time_s,
            }
            if solve_budget is not None
            else None
        ),
        "resilience": (
            asdict(resilience) if resilience is not None else None
        ),
    }


# ----------------------------------------------------------------------
# Journal header / entry builders (moved verbatim from the drivers)
# ----------------------------------------------------------------------
def simulation_journal_header(
    *,
    network,
    jobs,
    horizon: float,
    tau: float,
    slice_length: float,
    policy: str,
    k_paths: int,
    alpha: float,
    ret_b_max: float,
    ret_delta: float,
    rejection: str,
    verify_epochs: bool,
    verify_solutions: bool,
    warm_start: bool,
    solve_budget,
    resilience,
    fault_schedule,
) -> dict:
    """The simulator journal's immutable run description (first line)."""
    from ..serialization import (
        fault_events_to_list,
        jobs_to_dict,
        network_to_dict,
    )

    return {
        "network": network_to_dict(network),
        "jobs": jobs_to_dict(jobs)["jobs"],
        "horizon": float(horizon),
        "config": {
            "tau": tau,
            "slice_length": slice_length,
            "policy": policy,
            "k_paths": k_paths,
            "alpha": alpha,
            "ret_b_max": ret_b_max,
            "ret_delta": ret_delta,
            "rejection": rejection,
            "verify_epochs": verify_epochs,
            "verify_solutions": verify_solutions,
            "warm_start": warm_start,
            # Always the one per-epoch planner; kept so existing
            # journals and their resume digests stay byte-identical.
            "planner": "monolithic",
            **solver_config_dict(solve_budget, resilience),
        },
        "faults": (
            fault_events_to_list(fault_schedule.events)
            if fault_schedule is not None
            else None
        ),
    }


def simulation_journal_entry(
    order: list,
    records: Mapping,
    now: float,
    epoch: int,
    fault_idx: int,
    edge_map: Mapping,
    new_events: Iterable,
) -> dict:
    """One committed-epoch record: the simulator's full mutable state."""
    return {
        "epoch": int(epoch),
        "now": float(now),
        "fault_idx": int(fault_idx),
        "records": [
            {
                "job": records[i].job.id,
                "status": records[i].status,
                "remaining": records[i].remaining,
                "effective_end": records[i].effective_end,
                "completion_time": records[i].completion_time,
            }
            for i in order
        ],
        "used_edges": [
            [job_id, sorted(int(e) for e in edges)]
            for job_id, edges in sorted(
                edge_map.items(), key=lambda kv: str(kv[0])
            )
        ],
        "events": [
            {"type": type(ev).__name__, **asdict(ev)} for ev in new_events
        ],
    }


def service_journal_header(
    *,
    network,
    tau: float,
    slice_length: float,
    k_paths: int,
    queue_limit: int,
    rate: float,
    burst: float,
    ret_b_max: float,
    ret_delta: float,
    renegotiate_limit: int,
    warm_start: bool,
    verify_solutions: bool,
    solve_budget,
    resilience,
    fault_schedule,
) -> dict:
    """The service batch journal's immutable run description."""
    from ..serialization import fault_events_to_list, network_to_dict

    config = {
        "tau": tau,
        "slice_length": slice_length,
        "k_paths": k_paths,
        "queue_limit": queue_limit,
        "rate": rate,
        "burst": burst,
        "ret_b_max": ret_b_max,
        "ret_delta": ret_delta,
        "renegotiate_limit": renegotiate_limit,
        "warm_start": warm_start,
        "verify_solutions": verify_solutions,
        **solver_config_dict(solve_budget, resilience),
    }
    return {
        "service": True,
        "network": network_to_dict(network),
        "config": config,
        "faults": (
            fault_events_to_list(fault_schedule.events)
            if fault_schedule is not None
            else None
        ),
    }


def service_journal_entry(
    *,
    epoch: int,
    now: float,
    fault_idx: int,
    bucket_tokens: float,
    decisions: list,
    transitions: list,
    book,
    internal: list,
) -> dict:
    """One committed-tick record: decisions, transitions, live residuals."""
    return {
        "epoch": int(epoch),
        "now": float(now),
        "fault_idx": int(fault_idx),
        "bucket_tokens": float(bucket_tokens),
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
        "internal": list(internal),
    }


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
@dataclass
class EpochKernel:
    """Shared epoch-step state machine for every periodic controller.

    One instance per run.  The kernel owns the loop-invariant epoch
    state (virtual time ``now``, ``epoch`` counter, ``fault_idx``
    cursor), the per-epoch contract (``observe`` / ``decide`` /
    ``commit`` / ``advance``) and the cross-cutting hooks the drivers
    used to duplicate: crash points, solve-budget restarts, fault
    detection with carried-plan invalidation, journal commits.

    Parameters
    ----------
    tau, slice_length:
        The epoch period and scheduling-grid granularity.
    base_action:
        The driver's configured knobs; ``decide`` returns it unchanged
        when no policy is attached, and policies receive it inside the
        observation (``obs.base``).
    policy:
        Optional :class:`~repro.control.policies.ControlPolicy`.
        ``None`` short-circuits the decide path entirely.
    fault_schedule, crash_injector, solve_budget, engine, telemetry:
        The shared infrastructure the kernel advances or fires on the
        drivers' behalf.  ``engine`` is only used to invalidate carried
        plans when a fault strikes.
    now, epoch, fault_idx:
        Initial state; ``resume`` paths seed these from the journal.
    """

    tau: float
    slice_length: float
    base_action: EpochAction
    policy: object | None = None
    fault_schedule: object | None = None
    crash_injector: object | None = None
    solve_budget: object | None = None
    engine: object | None = None
    telemetry: Telemetry = NULL_TELEMETRY
    now: float = 0.0
    epoch: int = 0
    fault_idx: int = 0
    #: Cumulative counters for cheap observations.
    delivered_volume: float = 0.0
    last_zstar: float | None = None
    last_overloaded: bool | None = None
    _cache_totals: dict = field(default_factory=dict, repr=False)

    # -- crash points ---------------------------------------------------
    def crash_point(self, point: str, epoch: int | None = None) -> None:
        """Fire the crash injector if this is its ``(point, epoch)``."""
        ci = self.crash_injector
        e = self.epoch if epoch is None else epoch
        if ci is not None and ci.should_fire(point, e):
            ci.fire(point, e)

    # -- budget ---------------------------------------------------------
    def restart_budget(self) -> None:
        """Give the epoch a fresh solve allowance, if one is configured."""
        if self.solve_budget is not None:
            self.solve_budget.restart()

    def budget_for(self, action: EpochAction):
        """The epoch's budget under the action's split.

        ``budget_scale == 1.0`` returns the configured budget object
        itself (restarted by :meth:`restart_budget`), so the default
        path is untouched; any other scale builds a fresh
        :class:`~repro.lp.solver.SolveBudget` for this epoch only.
        """
        if self.solve_budget is None or action.budget_scale == 1.0:
            return self.solve_budget
        from ..lp.solver import SolveBudget

        budget = SolveBudget(
            self.solve_budget.wall_time_s * action.budget_scale,
            min_backend_time_s=self.solve_budget.min_backend_time_s,
        )
        budget.restart()
        return budget

    # -- faults ---------------------------------------------------------
    def detect_faults(self, now: float | None = None) -> FaultDetection:
        """Advance the fault cursor; invalidate carried plans on strikes.

        Returns the newly seen events and the affected (lost-capacity)
        edges.  Without a fault schedule this is a constant-time no-op.
        """
        if self.fault_schedule is None:
            return FaultDetection((), frozenset())
        t = self.now if now is None else now
        self.fault_idx, detection = advance_fault_cursor(
            self.fault_schedule, self.fault_idx, t
        )
        if detection.affected and self.engine is not None:
            # Carried plans routed before the fault are poor witnesses
            # after it: their feasibility certificates were built on the
            # pre-fault route set.
            self.engine.invalidate_carried()
        return detection

    # -- observe / decide / feedback ------------------------------------
    @property
    def wants_observation(self) -> bool:
        """Whether ``decide`` needs a real observation built."""
        return self.policy is not None

    def observe(
        self,
        *,
        backlog: int = 0,
        total_remaining: float = 0.0,
        queue_depth: int = 0,
    ) -> EpochObservation | None:
        """Assemble the decision-point observation (``None`` when unused)."""
        if not self.wants_observation:
            return None
        failed = 0
        if self.fault_schedule is not None:
            failed = len(self.fault_schedule.failed_edges_at(self.now))
        cache = {}
        if self.telemetry.enabled:
            for name in CACHE_COUNTERS:
                cache[name] = float(self.telemetry.counters.get(name, 0.0))
        return EpochObservation(
            now=self.now,
            epoch=self.epoch,
            backlog=int(backlog),
            total_remaining=float(total_remaining),
            queue_depth=int(queue_depth),
            delivered_volume=self.delivered_volume,
            fault_idx=self.fault_idx,
            failed_edges=failed,
            overloaded=self.last_overloaded,
            last_zstar=self.last_zstar,
            budget_wall_s=(
                self.solve_budget.wall_time_s
                if self.solve_budget is not None
                else None
            ),
            cache=cache,
            base=self.base_action,
        )

    def decide(self, obs: EpochObservation | None) -> EpochAction:
        """The policy's action for this epoch (base action without one)."""
        if self.policy is None or obs is None:
            return self.base_action
        action = self.policy.decide(obs)
        if action is None:
            return self.base_action
        return action.validate()

    def feedback(
        self,
        obs: EpochObservation | None,
        action: EpochAction,
        outcome: EpochOutcome,
    ) -> None:
        """Close the loop: outcome accounting plus the policy's update."""
        self.delivered_volume += outcome.delivered
        if outcome.zstar is not None:
            self.last_zstar = outcome.zstar
            self.last_overloaded = outcome.overloaded
        if self.policy is not None and obs is not None:
            self.policy.feedback(obs, action, outcome)

    # -- commit / advance -----------------------------------------------
    def commit(
        self,
        journal: "EpochJournal | None",
        entry: dict | None,
        *,
        crash_epoch: int | None = None,
    ) -> bool:
        """Durably record one epoch; returns whether a line was written.

        ``crash_epoch`` arms the simulator's ``mid-journal`` crash
        point: the entry is first written *torn* (truncated mid-line),
        the injector fires, and — when it does not actually kill the
        process — the intact line is appended over it, exactly as the
        pre-kernel drivers did.
        """
        if journal is None or entry is None:
            return False
        ci = self.crash_injector
        if (
            crash_epoch is not None
            and ci is not None
            and ci.should_fire("mid-journal", crash_epoch)
        ):
            journal.append_torn(entry)
            ci.fire("mid-journal", crash_epoch)
        journal.append(entry)
        self.telemetry.count("journal_commits")
        return True

    def advance(self, to: float | None = None) -> None:
        """Move the clock one epoch forward (or jump to ``to``)."""
        if to is None:
            self.now += self.tau
            self.epoch += 1
        else:
            self.now = float(to)
            self.epoch = int(round(self.now / self.tau))

    # -- telemetry ------------------------------------------------------
    def cache_delta(self) -> dict:
        """Per-epoch delta of the engine-reuse counters (telemetry only)."""
        delta = {}
        for name in CACHE_COUNTERS:
            total = self.telemetry.counters.get(name, 0.0)
            delta[name] = total - self._cache_totals.get(name, 0.0)
            self._cache_totals[name] = total
        return delta


def base_action_for(
    *,
    alpha: float,
    k_paths: int,
    admission_policy: str = "reduce",
    rejection: str = "prefix",
) -> EpochAction:
    """The :class:`EpochAction` mirroring a driver's configured knobs.

    ``alpha_step`` / ``alpha_max`` mirror the
    :class:`~repro.core.scheduler.Scheduler` constructor defaults the
    drivers rely on; an action equal to the base is the signal that the
    prebuilt scheduler can be reused unchanged.
    """
    return EpochAction(
        alpha=alpha,
        alpha_step=0.1,
        alpha_max=0.5,
        k_paths=k_paths,
        admission_policy=admission_policy,
        rejection=rejection,
        budget_scale=1.0,
    )
