"""The shared epoch-control kernel: one observe→decide→commit contract.

The paper's controller is a single periodic loop: wake up every
``tau``, observe the world, decide this epoch's knobs, plan, execute,
commit.  Two drivers run that loop —
:class:`repro.sim.simulator.Simulation` (the batch simulator) and
:class:`repro.service.core.ReservationService` (the online admission
front-end), plus the chaos runner's sim/serve targets — and
:class:`EpochKernel` is the one copy of it they share.  It owns the
epoch state (virtual time, epoch counter, fault cursor) and, per epoch:

* :meth:`EpochKernel.observe` assembles an :class:`EpochObservation`
  from kernel state and driver state (backlog, residual volume, queue
  depth, solve budget);
* :meth:`EpochKernel.decide` asks the attached
  :class:`~repro.control.policies.ControlPolicy` for an
  :class:`EpochAction` — the per-epoch knobs (fairness ``alpha`` start
  and escalation cap, path-set size ``k_paths``, admission policy,
  solve-budget split);
* :meth:`EpochKernel.plan` schedules the driver's residual jobs on the
  epoch's grid, routes and capacity snapshot, and
  :meth:`EpochKernel.deliver` returns what the plan's first epoch
  carried per job, with volume lost to mid-epoch faults voided; each
  driver folds that into its own records;
* :meth:`EpochKernel.commit` durably records the epoch (journal append
  with the mid-journal torn-write crash point) and
  :meth:`EpochKernel.advance` moves the clock.

The kernel also holds the run's planner cache: one
:class:`~repro.engine.ModelEngine` per ``k_paths``
(:meth:`EpochKernel.engine_for`) and one
:class:`~repro.core.scheduler.Scheduler` per action's knobs
(:meth:`EpochKernel.scheduler_for`).

With no policy attached (``policy=None``) ``decide`` returns the
driver's configured base action without building an observation, so
the default path pays nothing for the surface.  With
:class:`~repro.control.policies.FixedPolicy` the full contract runs and
the outputs are byte-identical — property-tested against golden
journals in ``tests/test_control_equivalence.py``.

Expiry stays in each driver: the two walk different records, and only
the simulator sweeps at the horizon; :func:`window_closed` is their one
shared predicate.  Each driver names the constructor arguments its
journal header records in one tuple; :func:`encode_run_config` writes
them (with the solve budget, resilience and fault timeline) and
:func:`decode_run_config` reads them back for ``resume``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..core.metrics import per_slice_delivery
from ..core.scheduler import Scheduler
from ..engine.engine import ModelEngine
from ..errors import ValidationError
from ..faults.events import FaultEvent, LinkDown, WavelengthDegrade
from ..faults.schedule import FaultSchedule
from ..lp.solver import SolveBudget, SolveResilience
from ..network.capacity import CapacityProfile
from ..obs import current
from ..timegrid import TimeGrid

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..recovery.journal import EpochJournal

__all__ = [
    "EpochAction",
    "EpochDelivery",
    "EpochObservation",
    "EpochOutcome",
    "EpochKernel",
    "FaultDetection",
    "base_action_for",
    "advance_fault_cursor",
    "check_journal_safe",
    "window_closed",
    "used_edges",
    "encode_run_config",
    "decode_run_config",
]

_EPS = 1e-9
#: Grants (in wavelengths) below this carry nothing worth voiding.
_GRANT_TOL = 1e-6

#: Engine-reuse telemetry counters whose per-epoch deltas
#: :meth:`EpochKernel.cache_delta` reports.
CACHE_COUNTERS = (
    "structure_cache_hits",
    "structure_patch_hits",
    "cold_builds",
    "memo_hits",
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
    base: EpochAction


@dataclass(frozen=True)
class EpochOutcome:
    """What one epoch's pass achieved — the policy's feedback signal.

    Attributes
    ----------
    epoch:
        The epoch the outcome belongs to.
    delivered:
        Volume delivered during the epoch.
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
class EpochDelivery:
    """What one epoch's executed slices carried (:meth:`EpochKernel.deliver`).

    Per-job lists follow the plan's ``structure.jobs``, volumes in job
    units; each driver folds them in at its own volume tolerance.
    """

    #: The grid slices starting before ``now + tau``.
    executed: list[int]
    #: The realized allocation: the plan's own ``x`` unless a mid-epoch
    #: fault voided part of it (``voided``).
    x: np.ndarray
    voided: bool
    #: Each job's realized and planned volume over ``executed``.
    volume: list[float]
    planned: list[float]
    #: Each job's last executed slice that carried volume, if any.
    last_slice: list[int | None]
    #: Worst-case capacity per executed slice under the fault timeline
    #: (``None`` without one).
    capacity: list[np.ndarray] | None


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


def check_journal_safe(policy, journal) -> None:
    """Refuse an adaptive control policy on a journaled run.

    A resumed run replays without the policy object, so only a policy
    that declares itself ``journal_safe`` (or none at all) may drive a
    run whose journal can be resumed.
    """
    if (
        policy is not None
        and journal is not None
        and not getattr(policy, "journal_safe", False)
    ):
        raise ValidationError(
            "journal= requires a journal-safe control policy "
            "(FixedPolicy or None); adaptive policies cannot be "
            "replayed on resume"
        )


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


#: Config fields later journal revisions added: a header written before
#: them omits them, and ``resume`` leaves the constructor default in place.
_LATE_CONFIG_FIELDS = frozenset({"verify_epochs", "verify_solutions", "warm_start"})


def encode_run_config(driver, fields: tuple[str, ...]) -> dict:
    """A driver's journal-header run description.

    Returns ``{"network", "config", "faults"}``: ``config`` holds every
    attribute named in ``fields`` read off ``driver``, plus its solve
    budget and resilience; ``faults`` is its fault timeline (``None``
    without one).  :func:`decode_run_config` is the inverse.
    """
    from ..serialization import fault_events_to_list, network_to_dict

    budget = driver.solve_budget
    resilience = driver.resilience
    faults = driver.fault_schedule
    return {
        "network": network_to_dict(driver.network),
        "config": {
            **{name: getattr(driver, name) for name in fields},
            "solve_budget": None if budget is None else {
                "wall_time_s": budget.wall_time_s,
                "min_backend_time_s": budget.min_backend_time_s,
            },
            "resilience": None if resilience is None else asdict(resilience),
        },
        "faults": None if faults is None else fault_events_to_list(faults.events),
    }


def decode_run_config(header: Mapping, fields: tuple[str, ...], path) -> tuple:
    """Invert :func:`encode_run_config`: ``(network, constructor kwargs)``.

    The kwargs carry each of ``fields`` plus ``solve_budget``,
    ``resilience`` and ``fault_schedule``.  A missing field raises
    :class:`ValidationError` naming it, except the late-added ones, which
    are left out so the constructor default applies.
    """
    from ..serialization import fault_events_from_list, network_from_dict

    try:
        network = network_from_dict(header["network"])
        config = dict(header["config"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            f"journal header at {path} is missing field {exc}"
        ) from None
    kwargs = {}
    for name in fields:
        if name in config:
            kwargs[name] = config[name]
        elif name not in _LATE_CONFIG_FIELDS:
            raise ValidationError(
                f"journal header at {path} is missing config field {name!r}"
            )
    budget = config.get("solve_budget")
    resilience = config.get("resilience")
    faults = header.get("faults")
    kwargs["solve_budget"] = SolveBudget(**budget) if budget else None
    kwargs["resilience"] = SolveResilience(**resilience) if resilience else None
    kwargs["fault_schedule"] = (
        None if faults is None
        else FaultSchedule(network, fault_events_from_list(faults))
    )
    return network, kwargs


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
@dataclass
class EpochKernel:
    """Shared epoch-step state machine for every periodic controller.

    One instance per run.  The kernel owns the loop-invariant epoch
    state (virtual time ``now``, ``epoch`` counter, ``fault_idx``
    cursor), the per-epoch contract (``observe`` / ``decide`` /
    ``plan`` / ``deliver`` / ``commit`` / ``advance``), crash points,
    solve-budget restarts, fault detection, and the per-action planner
    cache.

    Each epoch plans on what the controller can see at ``now`` and
    delivers what the network really carried.  :meth:`grid_for` is the
    planning grid, :meth:`routes` the path sets around links down at
    ``now``, :meth:`planning_profile` the capacities (maintenance and
    the fault snapshot), and :meth:`realize` the executed slices with
    volume lost to mid-epoch faults voided.  Admission probes and RET
    searches take the routes but plan on installed capacity.

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
    fault_schedule, crash_injector, solve_budget:
        The shared infrastructure the kernel advances or fires on the
        drivers' behalf.
    network, warm_start, resilience, verify_solutions:
        What the planner cache builds its engines and schedulers with.
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
    network: object | None = None
    warm_start: bool = True
    resilience: object | None = None
    verify_solutions: bool = False
    now: float = 0.0
    epoch: int = 0
    fault_idx: int = 0
    #: Cumulative counters for cheap observations.
    delivered_volume: float = 0.0
    last_zstar: float | None = None
    last_overloaded: bool | None = None
    _cache_totals: dict = field(default_factory=dict, repr=False)
    _engines: dict = field(default_factory=dict, repr=False)
    _schedulers: dict = field(default_factory=dict, repr=False)

    @classmethod
    def for_driver(cls, driver, base_action: EpochAction) -> "EpochKernel":
        """A fresh kernel over a driver's configuration attributes."""
        return cls(
            tau=driver.tau,
            slice_length=driver.slice_length,
            base_action=base_action,
            policy=driver.control_policy,
            fault_schedule=driver.fault_schedule,
            crash_injector=driver.crash_injector,
            solve_budget=driver.solve_budget,
            network=driver.network,
            warm_start=driver.warm_start,
            resilience=driver.resilience,
            verify_solutions=driver.verify_solutions,
        )

    # -- planner cache --------------------------------------------------
    def engine_for(self, k_paths: int) -> ModelEngine:
        """The run's engine for ``k_paths``, built on first use.

        One engine per path-set size for the whole run: path sets,
        structure layouts and memoized solves carry over between epochs.
        Every engine owns the run's ``resilience``: admission probes,
        RET searches and the schedulers bound to it all retry under it.
        """
        engine = self._engines.get(k_paths)
        if engine is None:
            engine = self._engines[k_paths] = ModelEngine(
                self.network, k_paths, warm_start=self.warm_start,
                resilience=self.resilience,
            )
        return engine

    def scheduler_for(self, action: EpochAction) -> Scheduler:
        """The scheduler for an action's alpha and ``k_paths`` knobs (cached)."""
        key = (action.alpha, action.alpha_step, action.alpha_max, action.k_paths)
        scheduler = self._schedulers.get(key)
        if scheduler is None:
            scheduler = self._schedulers[key] = Scheduler(
                self.network,
                k_paths=action.k_paths,
                alpha=action.alpha,
                alpha_step=action.alpha_step,
                alpha_max=action.alpha_max,
                slice_length=self.slice_length,
                engine=self.engine_for(action.k_paths),
                verify_solutions=self.verify_solutions,
            )
        return scheduler

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
        budget = SolveBudget(
            self.solve_budget.wall_time_s * action.budget_scale,
            min_backend_time_s=self.solve_budget.min_backend_time_s,
        )
        budget.restart()
        return budget

    # -- faults ---------------------------------------------------------
    def detect_faults(self) -> FaultDetection:
        """Advance the fault cursor to ``now``.

        Returns the newly seen events and the affected (lost-capacity)
        edges.  Without a fault schedule this is a constant-time no-op.
        """
        if self.fault_schedule is None:
            return FaultDetection((), frozenset())
        self.fault_idx, detection = advance_fault_cursor(
            self.fault_schedule, self.fault_idx, self.now
        )
        return detection

    # -- the epoch's view of the network --------------------------------
    def grid_for(self, jobs) -> TimeGrid:
        """The epoch's grid: from ``now`` over every window, at least one epoch."""
        horizon = max([job.end for job in jobs] + [self.now + self.tau])
        return TimeGrid.covering(horizon, self.slice_length, start=self.now)

    def routes(self, jobs, engine: ModelEngine) -> dict | None:
        """Path sets for ``jobs`` avoiding the links failed at ``now``.

        ``None`` when no link is down, so the engine's own routes apply.
        A pair the failures disconnect maps to an empty list; the driver
        decides what that means (the simulator holds the job until a
        repair, the service's admission rejects it).
        """
        if self.fault_schedule is None:
            return None
        failed = self.fault_schedule.failed_edges_at(self.now)
        if not failed:
            return None
        return engine.topology.path_sets(
            [(job.source, job.dest) for job in jobs], banned_edges=failed
        )

    def planning_profile(self, grid: TimeGrid, maintenance=None):
        """Capacities to plan the epoch against (``None``: installed).

        ``maintenance`` is an absolute-time
        :class:`~repro.network.capacity.CapacityProfile`, re-based onto
        ``grid``.  The fault side is the *snapshot* at ``now`` held
        constant: the controller knows which links are down or degraded
        now, not when they will be repaired.
        """
        profile = maintenance.for_grid(grid) if maintenance is not None else None
        if self.fault_schedule is None:
            return profile
        snap = self.fault_schedule.snapshot_profile(grid, self.now)
        if profile is None:
            return snap
        return CapacityProfile(
            self.network, grid, np.minimum(profile.matrix, snap.matrix)
        )

    def plan(self, jobs, action: EpochAction, *, path_sets, budget,
             maintenance=None):
        """Schedule ``jobs`` for this epoch under ``action``'s knobs.

        Plans on :meth:`grid_for`'s grid against
        :meth:`planning_profile` (``maintenance`` ∧ the fault snapshot)
        over ``path_sets`` (the driver's :meth:`routes`), within
        ``budget``.
        """
        grid = self.grid_for(jobs)
        return self.scheduler_for(action).schedule(
            jobs,
            grid,
            capacity_profile=self.planning_profile(grid, maintenance),
            path_sets=path_sets,
            budget=budget,
        )

    def realize(self, structure, x) -> tuple[list[int], np.ndarray, list | None]:
        """The executed slices (starting before ``now + tau``), ``x``
        scaled to what the true fault timeline let through, and each
        executed slice's worst-case capacities (``None`` without faults).

        Per executed slice, an edge whose planned load exceeds its
        worst-case capacity (``min_capacity_over`` the slice) scales the
        grants crossing it by ``capacity / load``, to zero on a full cut;
        a grant keeps the smallest factor on its path, so no (edge,
        slice) carries more than it had.  Returns ``x`` itself when
        nothing was lost.
        """
        grid = structure.grid
        x = np.asarray(x, dtype=float)
        executed = [
            j for j in range(grid.num_slices)
            if grid.slice_start(j) < self.now + self.tau - _EPS
        ]
        if self.fault_schedule is None:
            return executed, x, None
        x_eff = x.copy()
        paths = structure.paths
        capacity = []
        for j in executed:
            caps = self.fault_schedule.min_capacity_over(
                grid.slice_start(j), grid.slice_end(j)
            )
            capacity.append(caps)
            cols = np.flatnonzero((structure.col_slice == j) & (x > _GRANT_TOL))
            edges = [
                list(paths[structure.col_job[c]][structure.col_path[c]].edge_ids)
                for c in cols
            ]
            load = np.zeros(self.network.num_edges)
            for c, ids in zip(cols, edges):
                load[ids] += x[c]
            over = load > caps + _GRANT_TOL
            factor = np.ones_like(load)
            factor[over] = caps[over] / load[over]
            for c, ids in zip(cols, edges):
                x_eff[c] = x[c] * min(1.0, factor[ids].min())
        return executed, (x if np.array_equal(x_eff, x) else x_eff), capacity

    def deliver(self, result) -> EpochDelivery:
        """What the plan ``result`` carried this epoch, per job.

        Runs :meth:`realize` and turns the executed slices' grants into
        job volumes (``per_slice_delivery`` × ``wavelength_rate``), both
        as realized and as planned.
        """
        structure = result.structure
        x = np.asarray(result.x, dtype=float)
        executed, x_eff, capacity = self.realize(structure, x)
        rate = self.network.wavelength_rate
        carried = per_slice_delivery(structure, x_eff)[:, executed]
        volume = [float(row.sum()) * rate for row in carried]
        planned = volume
        if x_eff is not x:
            planned = [
                float(row.sum()) * rate
                for row in per_slice_delivery(structure, x)[:, executed]
            ]
        last_slice = []
        for row in carried:
            nonzero = np.flatnonzero(row > 0)
            last_slice.append(executed[nonzero[-1]] if nonzero.size else None)
        return EpochDelivery(
            executed=executed,
            x=x_eff,
            voided=x_eff is not x,
            volume=volume,
            planned=planned,
            last_slice=last_slice,
            capacity=capacity,
        )

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
        current().count("journal_commits")
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
        counters = current().counters
        delta = {}
        for name in CACHE_COUNTERS:
            total = counters.get(name, 0.0)
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

    The action's ``alpha_step`` / ``alpha_max`` defaults mirror the
    :class:`~repro.core.scheduler.Scheduler` constructor defaults the
    drivers rely on.
    """
    return EpochAction(
        alpha=alpha,
        k_paths=k_paths,
        admission_policy=admission_policy,
        rejection=rejection,
    )
