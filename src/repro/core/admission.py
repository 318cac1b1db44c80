"""Admission control policies (paper Section II-A/II-B and footnote 1).

When the network is overloaded (``Z* <= 1``) the controller can take
three actions, each captured by a policy here:

* **Reject** (action i, footnote 1): order the jobs by an administrative
  sequence and binary-search the longest prefix whose stage-1 throughput
  still meets a threshold; the rest are rejected.
* **Reduce sizes** (action ii): admit everyone, scale demands by the
  per-job stage-2 throughput ``Z_i`` — the sizes the network *can*
  guarantee by the requested end times.
* **Extend end times** (action iii): admit everyone and stretch all end
  times by the smallest ``(1 + b)`` under which every full job completes
  (Algorithm 2).

The binary search in :func:`admit_max_prefix` is sound because ``Z*`` is
monotone non-increasing in the job set: dropping jobs (and their
coupling constraint (2)) can only raise the achievable common factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..engine.engine import ModelEngine
from ..errors import BudgetExceededError, ValidationError
from ..lp.solver import SolveBudget
from ..network.graph import Network
from ..timegrid import TimeGrid
from ..workload.jobs import Job, JobSet
from .throughput import solve_stage1

__all__ = [
    "by_arrival",
    "by_size_descending",
    "by_size_ascending",
    "by_laxity",
    "admit_max_prefix",
    "admit_greedy",
    "AdmissionDecision",
]


# ----------------------------------------------------------------------
# Sequencing policies (the "administrative policy" of footnote 1)
# ----------------------------------------------------------------------
def by_arrival(job: Job) -> tuple:
    """First-come first-served ordering key."""
    return (job.arrival, str(job.id))


def by_size_descending(job: Job) -> tuple:
    """Large science flows first (the paper's default preference)."""
    return (-job.size, str(job.id))


def by_size_ascending(job: Job) -> tuple:
    """Small jobs first (finish many jobs at slight cost to large ones)."""
    return (job.size, str(job.id))


def by_laxity(job: Job) -> tuple:
    """Tightest jobs first: least window slack per unit of demand."""
    return (job.duration / job.size, str(job.id))


@dataclass(frozen=True)
class AdmissionDecision:
    """Result of an admission-control pass.

    Attributes
    ----------
    admitted:
        Jobs accepted (possibly re-ordered by the sequencing policy).
    rejected:
        Jobs turned away.
    zstar:
        Stage-1 throughput of the admitted set (``inf`` when everything
        was rejected, vacuously feasible).
    degraded:
        True when a :class:`~repro.lp.solver.SolveBudget` ran out before
        the search finished; the decision is still sound (every admitted
        prefix was proven feasible before the budget died) but may admit
        fewer jobs than an unhurried pass would.
    """

    admitted: JobSet
    rejected: JobSet
    zstar: float
    degraded: bool = False

    @property
    def num_admitted(self) -> int:
        return len(self.admitted)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)


def _admission_engine(
    network: Network, k_paths: int, engine: ModelEngine | None
) -> ModelEngine:
    """Validate a caller-shared engine, or mint a local one.

    A shared engine (the simulator passes its per-run instance) lets the
    prefix search reuse the run's cached paths, structures and fragments,
    and the solve memo, instead of starting from empty caches: a prefix
    probe the run has already built is an exact hit or a clone.
    """
    if engine is None:
        return ModelEngine(network, k_paths)
    if engine.network is not network:
        raise ValidationError(
            "engine is bound to a different network than the admission call's"
        )
    if engine.k_paths != k_paths:
        raise ValidationError(
            f"engine resolves k_paths={engine.k_paths} but admission was "
            f"asked for k_paths={k_paths}"
        )
    return engine


def admit_max_prefix(
    network: Network,
    jobs: JobSet,
    grid: TimeGrid,
    k_paths: int = 4,
    threshold: float = 1.0,
    key: Callable[[Job], tuple] = by_arrival,
    engine: ModelEngine | None = None,
    budget: SolveBudget | None = None,
    path_sets: dict | None = None,
) -> AdmissionDecision:
    """Footnote-1 rejection: longest admissible prefix by binary search.

    Jobs are ordered by ``key``; the returned ``admitted`` set is the
    longest prefix whose stage-1 maximum concurrent throughput is at
    least ``threshold`` (1.0 = "all deadlines can be met in full").

    Jobs that are individually unschedulable (no path, or no whole slice
    inside their window) are rejected outright before the search, since
    they force ``Z* = 0`` for any prefix containing them.

    ``engine`` optionally shares a caller's :class:`ModelEngine` (bound
    to the same network / ``k_paths``), so the search's prefix
    structures reuse — and feed — the caller's caches.  ``path_sets``
    optionally overrides the engine's path resolution (the simulator
    passes fault-pruned sets while links are down); ``budget`` bounds
    the search's total wall time — when it expires mid-search, the
    longest prefix already *proven* admissible is returned with
    ``degraded=True`` instead of letting the probe blow the epoch
    deadline.
    """
    if threshold <= 0:
        raise ValidationError(f"threshold must be positive, got {threshold}")
    ordered = jobs.sorted_by(key)
    # One engine for the whole search: paths resolve once and prefix
    # structures share layout fragments across probes.
    engine = _admission_engine(network, k_paths, engine)
    if path_sets is None:
        path_sets = engine.topology.path_sets(ordered.od_pairs())

    schedulable: list[Job] = []
    rejected: list[Job] = []
    for job in ordered:
        has_path = bool(path_sets.get((job.source, job.dest)))
        has_slice = len(grid.window_slices(job.start, job.end)) > 0
        (schedulable if has_path and has_slice else rejected).append(job)

    def prefix_zstar(count: int) -> float:
        if count == 0:
            return float("inf")
        structure = engine.structure(
            JobSet(schedulable[:count]), grid, path_sets=path_sets
        )
        return solve_stage1(structure, budget=budget, engine=engine).zstar

    # Binary search the largest count with Z*(prefix) >= threshold,
    # tracking (lo, Z*(lo)) so the budget-exhausted exit below never
    # needs another solve to report the proven prefix.
    lo, zstar_lo = 0, float("inf")
    hi = len(schedulable)
    degraded = False
    try:
        z = prefix_zstar(hi)
        if z >= threshold:
            lo, zstar_lo = hi, z
        else:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                z = prefix_zstar(mid)
                if z >= threshold:
                    lo, zstar_lo = mid, z
                else:
                    hi = mid
    except BudgetExceededError:
        # Out of time mid-search: commit the longest prefix already
        # proven admissible.  Sound (monotonicity) but possibly short.
        degraded = True
    admitted = JobSet(schedulable[:lo])
    rejected.extend(schedulable[lo:])
    return AdmissionDecision(
        admitted=admitted,
        rejected=JobSet(rejected),
        zstar=zstar_lo,
        degraded=degraded,
    )


def admit_greedy(
    network: Network,
    jobs: JobSet,
    grid: TimeGrid,
    k_paths: int = 4,
    threshold: float = 1.0,
    key: Callable[[Job], tuple] = by_size_descending,
    engine: ModelEngine | None = None,
    budget: SolveBudget | None = None,
    path_sets: dict | None = None,
) -> AdmissionDecision:
    """Greedy non-prefix admission (the footnote's "future work").

    The footnote-1 algorithm rejects everything *after* the first job
    that does not fit, even if later, smaller jobs would.  This variant
    walks the ordered sequence and keeps each job iff the accepted set
    plus that job still has ``Z* >= threshold`` — one stage-1 solve per
    job instead of ``O(log n)``, but it can only admit a superset-value
    of what any prefix achieves under the same ordering.

    Soundness rests on the same monotonicity as the prefix search:
    dropping a job never lowers ``Z*``, so an accepted set stays
    feasible as rejected jobs are skipped.

    ``budget`` and ``path_sets`` behave as in :func:`admit_max_prefix`:
    a mid-walk budget expiry keeps the already-accepted set and rejects
    every job not yet probed, with ``degraded=True``.  Each probe goes
    through the engine's solve memo, as the prefix search's do: it
    retries under the engine's ``resilience``, and a scheduler sharing
    the engine replays the admitted set's stage-1 LP instead of solving
    it again.
    """
    if threshold <= 0:
        raise ValidationError(f"threshold must be positive, got {threshold}")
    ordered = jobs.sorted_by(key)
    # The candidate sets all share paths and per-job layout fragments;
    # an engine makes the per-job stage-1 solves reuse both.
    engine = _admission_engine(network, k_paths, engine)
    if path_sets is None:
        path_sets = engine.topology.path_sets(ordered.od_pairs())

    accepted: list[Job] = []
    rejected: list[Job] = []
    zstar = float("inf")
    degraded = False
    for job in ordered:
        has_path = bool(path_sets.get((job.source, job.dest)))
        has_slice = len(grid.window_slices(job.start, job.end)) > 0
        if not (has_path and has_slice):
            rejected.append(job)
            continue
        if degraded:
            rejected.append(job)
            continue
        candidate = JobSet(accepted + [job])
        structure = engine.structure(candidate, grid, path_sets=path_sets)
        try:
            z = solve_stage1(structure, budget=budget, engine=engine).zstar
        except BudgetExceededError:
            # No time left to probe: everything not yet proven in is out.
            degraded = True
            rejected.append(job)
            continue
        if z >= threshold:
            accepted.append(job)
            zstar = z
        else:
            rejected.append(job)
    return AdmissionDecision(
        admitted=JobSet(accepted),
        rejected=JobSet(rejected),
        zstar=zstar,
        degraded=degraded,
    )
