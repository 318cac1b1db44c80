"""Related-work baseline schedulers (paper Sections I and IV).

The paper positions its optimization framework against simpler advance-
reservation schemes from the literature, arguing that multipath,
time-varying, periodically re-optimized wavelength assignment "will
translate into much greater resource efficiency."  To make that claim
measurable, this module implements two representative baselines in the
style of the cited related work:

* :func:`malleable_reservation` — after Burchard & Heiss [25]: for each
  job, one at a time, "check every possible interval between the
  requested start and end times ... and try to find a path that can
  accommodate the entire job on that interval."  Single path, constant
  wavelength count, contiguous interval, no re-allocation of existing
  reservations.
* :func:`average_rate_reservation` — after Munir et al. [23]: admission
  based on the job's *average* bandwidth requirement over its whole
  window, checked link by link on one path; admitted jobs hold a
  constant reservation for the entire window.

Both process jobs in arrival order against a shared integer residual
(first-come first-served), reject what does not fit, and never touch
earlier reservations — exactly the rigidity the paper's framework
removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable

import numpy as np

from ..errors import ValidationError
from ..network.capacity import CapacityProfile
from ..network.graph import Network
from ..network.paths import Path, build_path_sets
from ..timegrid import TimeGrid
from ..workload.jobs import Job, JobSet

__all__ = ["BaselineGrant", "BaselineResult", "malleable_reservation", "average_rate_reservation"]

Node = Hashable


@dataclass(frozen=True)
class BaselineGrant:
    """One admitted reservation: a constant-rate block on a single path.

    Attributes
    ----------
    job_id:
        The admitted job.
    path:
        The single path the reservation rides on.
    first_slice, last_slice:
        Inclusive slice range of the reservation.
    wavelengths:
        Constant wavelength count held on every slice of the range.
    """

    job_id: int | str
    path: Path
    first_slice: int
    last_slice: int
    wavelengths: int

    @property
    def num_slices(self) -> int:
        return self.last_slice - self.first_slice + 1


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of a baseline admission pass over a job set.

    Attributes
    ----------
    grants:
        One grant per admitted job, in admission order.
    rejected:
        Jobs that found no feasible reservation.
    loads:
        Final ``(num_edges, num_slices)`` wavelength loads.
    grid:
        The time grid the loads refer to.
    """

    grants: tuple[BaselineGrant, ...]
    rejected: tuple[Job, ...]
    loads: np.ndarray
    grid: TimeGrid

    @property
    def num_admitted(self) -> int:
        return len(self.grants)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)

    def acceptance_rate(self) -> float:
        total = self.num_admitted + self.num_rejected
        return self.num_admitted / total if total else float("nan")

    def delivered_volume(self, jobs: JobSet, wavelength_rate: float) -> float:
        """Total volume moved: each admitted job delivers its full size."""
        admitted = {g.job_id for g in self.grants}
        return float(sum(j.size for j in jobs if j.id in admitted))

    def completion_slice(self, job: Job, wavelength_rate: float) -> int:
        """Slice on which ``job``'s cumulative delivery reaches its size."""
        for grant in self.grants:
            if grant.job_id == job.id:
                demand = job.size / wavelength_rate
                acc = 0.0
                for j in range(grant.first_slice, grant.last_slice + 1):
                    acc += grant.wavelengths * self.grid.length(j)
                    if acc >= demand - 1e-9:
                        return j
                return grant.last_slice
        raise ValidationError(f"job {job.id!r} was not admitted")


def _window_or_none(grid: TimeGrid, job: Job) -> range | None:
    window = grid.window_slices(job.start, job.end)
    return window if len(window) > 0 else None


def _initial_residual(
    network: Network, grid: TimeGrid, capacity_profile: CapacityProfile | None
) -> np.ndarray:
    if capacity_profile is not None:
        if capacity_profile.network is not network:
            raise ValidationError("capacity profile built for a different network")
        if capacity_profile.grid != grid:
            raise ValidationError("capacity profile built for a different grid")
        return capacity_profile.matrix.astype(np.int64).copy()
    return np.repeat(
        network.capacities()[:, None], grid.num_slices, axis=1
    ).astype(np.int64)


def malleable_reservation(
    network: Network,
    jobs: JobSet,
    grid: TimeGrid,
    k_paths: int = 4,
    capacity_profile: CapacityProfile | None = None,
) -> BaselineResult:
    """First-come first-served malleable single-path reservations ([25]).

    For each job in arrival order, candidate intervals inside the window
    are scanned earliest-finish-first (ties: earlier start, i.e. longer
    interval needing fewer wavelengths).  The first (interval, path)
    pair whose bottleneck residual supports
    ``ceil(demand / interval_volume)`` constant wavelengths is reserved.
    """
    residual = _initial_residual(network, grid, capacity_profile)
    paths = build_path_sets(network, jobs.od_pairs(), k_paths)
    rate = network.wavelength_rate

    grants: list[BaselineGrant] = []
    rejected: list[Job] = []
    for job in jobs.sorted_by(lambda j: (j.arrival, str(j.id))):
        window = _window_or_none(grid, job)
        pset = paths.get((job.source, job.dest)) or []
        if window is None or not pset:
            rejected.append(job)
            continue
        demand = job.size / rate
        # Earliest finish first; then longest interval (fewest wavelengths).
        intervals = sorted(
            (
                (b, a)
                for b in range(window.start, window.stop)
                for a in range(window.start, b + 1)
            ),
            key=lambda ba: (ba[0], ba[1]),
        )
        grant = None
        for b, a in intervals:
            volume = float(grid.lengths[a : b + 1].sum())
            needed = int(np.ceil(demand / volume - 1e-12))
            for path in pset:
                edges = np.asarray(path.edge_ids, dtype=np.int64)
                if int(residual[np.ix_(edges, range(a, b + 1))].min()) >= needed:
                    grant = BaselineGrant(job.id, path, a, b, needed)
                    break
            if grant is not None:
                break
        if grant is None:
            rejected.append(job)
            continue
        edges = np.asarray(grant.path.edge_ids, dtype=np.int64)
        residual[
            np.ix_(edges, range(grant.first_slice, grant.last_slice + 1))
        ] -= grant.wavelengths
        grants.append(grant)

    loads = _initial_residual(network, grid, capacity_profile) - residual
    return BaselineResult(
        grants=tuple(grants),
        rejected=tuple(rejected),
        loads=loads.astype(float),
        grid=grid,
    )


def average_rate_reservation(
    network: Network,
    jobs: JobSet,
    grid: TimeGrid,
    capacity_profile: CapacityProfile | None = None,
) -> BaselineResult:
    """First-come first-served average-rate reservations ([23]-style).

    Each job's requirement is summarized by one number — the average
    wavelength count ``ceil(demand / window_volume)`` — and checked link
    by link on the single shortest path.  Admitted jobs hold that
    constant reservation across their *entire* window: no multipath, no
    time-varying rates, no packing into sub-intervals.
    """
    residual = _initial_residual(network, grid, capacity_profile)
    paths = build_path_sets(network, jobs.od_pairs(), 1)
    rate = network.wavelength_rate

    grants: list[BaselineGrant] = []
    rejected: list[Job] = []
    for job in jobs.sorted_by(lambda j: (j.arrival, str(j.id))):
        window = _window_or_none(grid, job)
        pset = paths.get((job.source, job.dest)) or []
        if window is None or not pset:
            rejected.append(job)
            continue
        path = pset[0]
        a, b = window.start, window.stop - 1
        volume = float(grid.lengths[a : b + 1].sum())
        needed = int(np.ceil(job.size / rate / volume - 1e-12))
        edges = np.asarray(path.edge_ids, dtype=np.int64)
        if int(residual[np.ix_(edges, range(a, b + 1))].min()) >= needed:
            residual[np.ix_(edges, range(a, b + 1))] -= needed
            grants.append(BaselineGrant(job.id, path, a, b, needed))
        else:
            rejected.append(job)

    loads = _initial_residual(network, grid, capacity_profile) - residual
    return BaselineResult(
        grants=tuple(grants),
        rejected=tuple(rejected),
        loads=loads.astype(float),
        grid=grid,
    )
