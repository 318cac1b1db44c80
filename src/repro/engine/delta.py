"""Delta layer: the carried plan that lets RET skip its bounds probe.

Epoch ``N+1``'s instance differs from epoch ``N``'s in departed jobs,
shifted windows and shrunk residual sizes, so its LPs are new.  What
carries over is the schedule epoch ``N`` committed:
:class:`CarriedPlan` holds it in absolute time, and
:meth:`CarriedPlan.certifies` maps it onto a new instance and answers
"is this instance's SUB-RET LP feasible?" by exhibiting a feasible
point.  Mapped grants that no longer apply (finished jobs, shifted
windows, rerouted paths) are *dropped*, which only frees capacity, and
per-job shortfalls are covered by a greedy repair over residual
capacity.  A certificate lets RET skip the expensive ``b_max`` bounds
probe entirely; a failed certificate costs nothing but the check, and
the probe solves as before.  The plan and the check run on Python
values (edge-id tuples, one load list per touched slice), which sees
the same float additions in the same order as a dense NumPy load grid.

Structure reuse across epochs lives in the layout layer
(:mod:`repro.engine.layout`): an exact hit, a clone of a structure with
the same layout, or a cold build.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

import numpy as np

from ..lp.model import ProblemStructure
from ..network.graph import Network
from ..network.paths import Path
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet

__all__ = ["CarriedPlan"]

Node = Hashable

#: Grants below this are dropped when a plan is carried (LPDAR emits
#: integer wavelength counts, so anything smaller is float dust).
_GRANT_TOL = 1e-9

#: Constraint slack a witness point may leave and still count as a
#: certificate.  Deliberately far below the LP solver's own primal
#: feasibility tolerance (HiGHS: 1e-7): a point this close to feasible
#: can only coexist with an *exactly* infeasible LP in pathological
#: cases, where the certificate merely changes which ScheduleError
#: message the caller sees.
_FEAS_TOL = 1e-9

#: Time/grid alignment tolerance, matching TimeGrid.window_slices.
_TIME_EPS = 1e-9


class CarriedPlan:
    """One epoch's committed schedule, re-playable in absolute time.

    Built from ``(structure, x)`` of a committed scheduling pass; each
    nonzero assignment becomes a grant ``(job id, path edge ids,
    absolute slice start, slice length, wavelengths)`` of Python
    values.  Absolute time
    is the point: the next epoch's grids start later and cover different
    horizons, so grants are re-anchored by *when* they happen, not by
    slice index.
    """

    __slots__ = ("grants", "num_grants")

    def __init__(self, grants: list) -> None:
        self.grants = grants
        self.num_grants = len(grants)

    @classmethod
    def from_assignment(
        cls, structure: ProblemStructure, x: np.ndarray
    ) -> "CarriedPlan":
        """Extract the nonzero grants of ``x`` over ``structure``."""
        x = np.asarray(x, dtype=float)
        cols = np.flatnonzero(x > _GRANT_TOL)
        jobs, paths = structure.jobs, structure.paths
        starts = structure.grid.boundaries.tolist()
        lengths = structure.grid.lengths.tolist()
        grants = [
            (jobs[i].id, tuple(paths[i][p].edge_ids), starts[j], lengths[j], value)
            for i, p, j, value in zip(
                structure.col_job[cols].tolist(),
                structure.col_path[cols].tolist(),
                structure.col_slice[cols].tolist(),
                x[cols].tolist(),
            )
        ]
        return cls(grants)

    def certifies(
        self,
        network: Network,
        jobs: JobSet,
        grid: TimeGrid,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]],
        k_paths: int,
    ) -> bool:
        """Whether this plan proves the instance's SUB-RET LP feasible.

        Constructs an explicit feasible point: carried grants are mapped
        onto ``grid`` (dropped when their job is gone, their slice falls
        outside the job's window or the grid, or their path is no longer
        allowed — dropping only frees capacity), then a greedy repair
        pass covers each job's remaining demand from residual capacity.
        Returns True iff every demand floor and every capacity row of
        the LP is satisfied by the result.  Certification is *sound*,
        never complete: a False just means the caller must solve.

        The walk runs on Python floats, one load list per slice that a
        grant or the repair touches; every load sees the same additions
        in the same order as a dense NumPy load matrix would.
        """
        lengths = grid.lengths
        slice_len = float(lengths[0])
        if (np.abs(lengths - slice_len) > _TIME_EPS).any():
            return False  # witness mapping assumes a uniform grid
        caps = network.capacities().astype(float).tolist()
        rate = float(network.wavelength_rate)

        # Per-job window, allowed paths and normalized demand — the same
        # quantities the SUB-RET structure would encode.
        live: dict = {}
        for job in jobs:
            window = grid.window_slices(job.start, job.end)
            if len(window) == 0:
                return False  # the structure build would refuse this job
            pset = list(path_sets.get((job.source, job.dest)) or ())[:k_paths]
            if not pset:
                return False
            allowed = [tuple(p.edge_ids) for p in pset]
            live[job.id] = (window, set(allowed), allowed, job.size / rate)

        num_slices = grid.num_slices
        loads: list[list[float] | None] = [None] * num_slices

        def load_column(j: int) -> list[float]:
            column = loads[j]
            if column is None:
                column = loads[j] = [0.0] * len(caps)
            return column

        delivered = dict.fromkeys(live, 0.0)
        grid_start = float(grid.start)
        mapped = []
        for job_id, edges, t, length, value in self.grants:
            info = live.get(job_id)
            if info is None:
                continue  # job completed / expired: capacity freed
            window, keys, _, _ = info
            if abs(length - slice_len) > _TIME_EPS:
                continue  # slice geometry changed; cannot re-anchor
            rel = (t - grid_start) / slice_len
            j = int(round(rel))
            if abs(rel - j) > _TIME_EPS or not 0 <= j < num_slices:
                continue  # slice lies in the executed past or off-grid
            if not window.start <= j < window.stop:
                continue  # window shifted away from this slice
            if edges not in keys:
                continue  # route changed (fault reroute): drop the grant
            column = load_column(j)
            for e in edges:
                column[e] += value
            delivered[job_id] += value * slice_len
            mapped.append((column, edges))

        # Mapped grants must respect *this* instance's capacities (the
        # plan may have been drawn under a degraded fault profile).  Only
        # loaded entries can exceed one: capacities are positive.
        for column, edges in mapped:
            for e in edges:
                if column[e] > caps[e] + _FEAS_TOL:
                    return False

        # Greedy repair: top up every under-delivered job (new arrivals
        # have no carried grants at all) from residual capacity.
        for job in jobs:
            window, _, allowed, demand = live[job.id]
            need = demand - delivered[job.id]
            if need <= _FEAS_TOL:
                continue
            for j in window:
                column = load_column(j)
                for edges in allowed:
                    avail = min([caps[e] - column[e] for e in edges])
                    if avail <= 0.0:
                        continue
                    take_vol = min(avail * slice_len, need)
                    add = take_vol / slice_len
                    for e in edges:
                        column[e] += add
                    need -= take_vol
                    if need <= _FEAS_TOL:
                        break
                if need <= _FEAS_TOL:
                    break
            if need > _FEAS_TOL:
                return False
        return True

    def __repr__(self) -> str:
        return f"CarriedPlan(grants={self.num_grants})"
