"""Delta layer: cross-epoch reuse when signatures *almost* match.

The layout layer's exact-signature cache never hits across simulator
epochs: epoch ``N+1``'s instance differs from epoch ``N``'s in departed
jobs, shifted windows and shrunk residual sizes, so every epoch paid a
cold build and a cold solve.  This module closes that gap with two
delta-aware mechanisms, all of which preserve the engine's core
invariant — warm results are bit-identical to cold ones:

* :func:`patch_structure` — build a :class:`~repro.lp.model.ProblemStructure`
  from a *donor* structure of a nearby instance.  The donor supplies the
  already-validated per-job routes and (when layouts line up) verbatim
  capacity-block segments; everything else is recomputed with exactly
  the arithmetic of the cold builder, so the patched structure is
  indistinguishable from a cold build.  Any delta the patcher cannot
  prove safe — a capacity profile, a changed route (fault rerouting), a
  job with no donor paths — makes it decline, and the caller falls back
  to the cold build (which then raises exactly the errors it always
  raised).
* :class:`CarriedPlan` — the previous epoch's committed integer schedule
  in absolute time.  :meth:`CarriedPlan.certifies` maps it onto a new
  instance and answers "is this instance's SUB-RET LP feasible?" by
  exhibiting a feasible point: mapped grants that no longer apply
  (finished jobs, shifted windows, rerouted paths) are *dropped* —
  which only frees capacity — and per-job shortfalls are covered by a
  greedy repair over residual capacity.  A certificate lets RET skip
  the expensive ``b_max`` bounds probe entirely; a failed certificate
  costs nothing but the check, and the probe solves as before.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from ..lp.model import ProblemStructure, column_layout, job_capacity_fragment
from ..network.graph import Network
from ..network.paths import Path
from ..obs import current
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet

__all__ = ["CarriedPlan", "patch_structure"]

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
    absolute slice start, slice length, wavelengths)``.  Absolute time
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
        grid = structure.grid
        grants = []
        for c in np.flatnonzero(x > _GRANT_TOL):
            i = int(structure.col_job[c])
            path = structure.paths[i][int(structure.col_path[c])]
            j = int(structure.col_slice[c])
            grants.append(
                (
                    structure.jobs[i].id,
                    tuple(path.edge_ids),
                    np.asarray(path.edge_ids, dtype=np.int64),
                    float(grid.slice_start(j)),
                    float(grid.lengths[j]),
                    float(x[c]),
                )
            )
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
        """
        lengths = grid.lengths
        slice_len = float(lengths[0])
        if np.any(np.abs(lengths - slice_len) > _TIME_EPS):
            return False  # witness mapping assumes a uniform grid
        caps = network.capacities().astype(float)
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
            keys = set()
            allowed = []
            for p in pset:
                keys.add(tuple(p.edge_ids))
                allowed.append(np.asarray(p.edge_ids, dtype=np.int64))
            live[job.id] = (window, keys, allowed, job.size / rate)

        loads = np.zeros((network.num_edges, grid.num_slices))
        delivered = dict.fromkeys(live, 0.0)
        grid_start = float(grid.start)
        for job_id, key, edges, t, length, value in self.grants:
            info = live.get(job_id)
            if info is None:
                continue  # job completed / expired: capacity freed
            window, keys, _, _ = info
            if abs(length - slice_len) > _TIME_EPS:
                continue  # slice geometry changed; cannot re-anchor
            rel = (t - grid_start) / slice_len
            j = int(round(rel))
            if abs(rel - j) > _TIME_EPS or not 0 <= j < grid.num_slices:
                continue  # slice lies in the executed past or off-grid
            if not window.start <= j < window.stop:
                continue  # window shifted away from this slice
            if key not in keys:
                continue  # route changed (fault reroute): drop the grant
            loads[edges, j] += value
            delivered[job_id] += value * slice_len

        # Mapped grants must respect *this* instance's capacities (the
        # plan may have been drawn under a degraded fault profile).
        if np.any(loads > caps[:, None] + _FEAS_TOL):
            return False

        # Greedy repair: top up every under-delivered job (new arrivals
        # have no carried grants at all) from residual capacity.
        for job in jobs:
            window, _, allowed, demand = live[job.id]
            need = demand - delivered[job.id]
            if need <= _FEAS_TOL:
                continue
            for j in window:
                for edges in allowed:
                    avail = float((caps[edges] - loads[edges, j]).min())
                    if avail <= 0.0:
                        continue
                    take_vol = min(avail * slice_len, need)
                    loads[edges, j] += take_vol / slice_len
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


# ----------------------------------------------------------------------
# Structure patching
# ----------------------------------------------------------------------
def _path_keys(paths: Sequence[Path]) -> list[tuple[int, ...]]:
    return [tuple(p.edge_ids) for p in paths]


def _donor_job_index(donor: ProblemStructure) -> dict:
    """``{job id: row}`` of the donor, cached on the donor itself."""
    index = getattr(donor, "_job_index", None)
    if index is None:
        index = {job.id: i for i, job in enumerate(donor.jobs)}
        donor._job_index = index
    return index


def patch_structure(
    donor: ProblemStructure,
    jobs: JobSet,
    grid: TimeGrid,
    k_paths: int,
    path_sets: Mapping[tuple[Node, Node], Sequence[Path]],
    capacity_profile=None,
    fragment_cache: dict | None = None,
) -> ProblemStructure | None:
    """A structure for ``(jobs, grid)`` patched from a nearby ``donor``.

    Returns ``None`` — *decline, don't raise* — whenever the delta
    cannot be proven safe, so the caller's cold build keeps sole
    ownership of validation errors.  Declines happen when:

    * either instance carries a capacity profile (fault/maintenance
      epochs re-validate profile-vs-grid invariants in the cold path);
    * ``k_paths`` differs, the grid cannot cover a job, a job has no
      allowed path, or a job window contains no whole slice;
    * a job shared with the donor resolves to *different* routes than
      the donor used — the fault-reroute case: banned-edge changes must
      bust patched path sets, never be papered over;
    * no job is shared with the donor at all (nothing to patch from).

    On success the result is **bit-identical** to the cold build: window
    arithmetic goes through :meth:`TimeGrid.window_slices`, capacity
    segments come verbatim from the donor where the absolute layout
    matches and from the shared fragment cache otherwise, and the final
    unique/CSR assembly is the cold builder's own.  When the entire
    layout matches (same grid, windows, routes and column offsets) the
    donor's assembled matrices are shared outright, along with its
    rhs-independent ``capacity_floor`` assembly block.
    """
    telemetry = current()
    if capacity_profile is not None or donor.capacity_profile is not None:
        return None
    if donor.k_paths != k_paths or len(jobs) == 0:
        return None
    network = donor.network
    if jobs.max_end() > grid.end + _TIME_EPS:
        return None

    donor_index = _donor_job_index(donor)
    n = len(jobs)
    paths: list[list[Path]] = []
    first = np.empty(n, dtype=np.int64)
    span = np.empty(n, dtype=np.int64)
    donor_row = np.full(n, -1, dtype=np.int64)
    matched = 0
    for i, job in enumerate(jobs):
        window = grid.window_slices(job.start, job.end)
        if len(window) == 0:
            return None
        first[i] = window.start
        span[i] = len(window)
        pset = list(path_sets.get((job.source, job.dest)) or ())[:k_paths]
        if not pset:
            return None
        di = donor_index.get(job.id)
        if di is not None:
            dj = donor.jobs[di]
            if dj.source != job.source or dj.dest != job.dest:
                return None  # same id, different endpoints: not a delta
            dpaths = donor.paths[di]
            same = len(dpaths) == len(pset) and all(
                a is b for a, b in zip(pset, dpaths)
            )
            if not same and _path_keys(pset) != _path_keys(dpaths):
                return None  # routes changed (fault reroute): decline
            donor_row[i] = di
            matched += 1
        paths.append(pset)
    if matched == 0:
        return None

    out = object.__new__(ProblemStructure)
    out.network = network
    out.jobs = jobs
    out.grid = grid
    out.k_paths = k_paths
    out.capacity_profile = None
    out.paths = paths
    out.first_slice = first
    out.span = span
    out.num_paths = np.array([len(p) for p in paths], dtype=np.int64)
    cols_per_job = out.num_paths * out.span
    out.job_offset = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cols_per_job, out=out.job_offset[1:])
    out.num_cols = int(out.job_offset[-1])
    out.demands = jobs.sizes() / network.wavelength_rate
    out._assembly_cache = {}

    # Whole-layout clone: identical grid, windows, routes and offsets
    # mean the donor's column arrays and matrices apply verbatim — only
    # the jobs (and their demands, an rhs) differ.
    if (
        n == len(donor.jobs)
        and grid == donor.grid
        and bool(np.all(donor_row == np.arange(n)))
        and np.array_equal(first, donor.first_slice)
        and np.array_equal(span, donor.span)
    ):
        out.col_job = donor.col_job
        out.col_slice = donor.col_slice
        out.col_path = donor.col_path
        out.col_len = donor.col_len
        out.cap_row_edge = donor.cap_row_edge
        out.cap_row_slice = donor.cap_row_slice
        out.cap_rhs = donor.cap_rhs
        out.capacity_matrix = donor.capacity_matrix
        out.demand_matrix = donor.demand_matrix
        out._cap_segments = getattr(donor, "_cap_segments", None)
        donor_cache = getattr(donor, "_assembly_cache", {})
        floor = donor_cache.get("capacity_floor")
        if floor is not None:
            # vstack([capacity; -demand]) is rhs-independent: shareable.
            out._assembly_cache["capacity_floor"] = floor
        if np.array_equal(out.demands, donor.demands):
            stage1 = donor_cache.get("stage1")
            if stage1 is not None:
                # stage1's a_eq embeds -demands; share only when equal.
                out._assembly_cache["stage1"] = stage1
        _finalize(out)
        telemetry.record(
            "structure_patched", jobs=n, num_cols=out.num_cols, clone=True
        )
        return out

    # Donor-guided rebuild: same column arithmetic as the cold builder,
    # with path validation skipped (donor-vouched above) and capacity
    # segments pulled from the donor or the fragment cache.
    out.col_job, out.col_slice, out.col_path = column_layout(
        first, span, cols_per_job, out.job_offset
    )
    out.col_len = grid.lengths[out.col_slice]

    num_slices = grid.num_slices
    donor_segments = (
        getattr(donor, "_cap_segments", None)
        if donor.grid.num_slices == num_slices
        else None
    )
    segments: list[tuple[np.ndarray, np.ndarray]] = []
    segments_reused = 0
    for i in range(n):
        di = int(donor_row[i])
        seg = None
        if (
            donor_segments is not None
            and di >= 0
            and donor.first_slice[di] == first[i]
            and donor.span[di] == span[i]
            and donor.job_offset[di] == out.job_offset[i]
        ):
            # Absolute rows *and* columns line up: the donor's segment
            # (row keys, column indices) applies verbatim.
            seg = donor_segments[di]
            segments_reused += 1
        if seg is None:
            span_i = int(span[i])
            key = (tuple(p.edge_ids for p in paths[i]), span_i)
            fragment = (
                fragment_cache.get(key) if fragment_cache is not None else None
            )
            if fragment is None:
                fragment = job_capacity_fragment(paths[i], span_i)
                if fragment_cache is not None:
                    fragment_cache[key] = fragment
                telemetry.count("layout_fragment_builds")
            else:
                telemetry.count("layout_fragment_hits")
            edge, rel_slice, rel_col = fragment
            seg = (
                edge * num_slices + (int(first[i]) + rel_slice),
                int(out.job_offset[i]) + rel_col,
            )
        segments.append(seg)
    out._cap_segments = segments

    row_keys = np.concatenate([s[0] for s in segments])
    cols = np.concatenate([s[1] for s in segments])
    unique_keys, rows = np.unique(row_keys, return_inverse=True)
    out.cap_row_edge = (unique_keys // num_slices).astype(np.int64)
    out.cap_row_slice = (unique_keys % num_slices).astype(np.int64)
    out.cap_rhs = network.capacities()[out.cap_row_edge].astype(float)
    out.capacity_matrix = sp.coo_matrix(
        (np.ones(len(cols), dtype=float), (rows, cols)),
        shape=(len(unique_keys), out.num_cols),
    ).tocsr()
    # The demand block's CSR form is known in closed form: columns are
    # job-major, so indptr *is* job_offset and indices are 0..n-1.
    out.demand_matrix = sp.csr_matrix(
        (
            out.col_len.copy(),
            np.arange(out.num_cols, dtype=np.int64),
            out.job_offset.copy(),
        ),
        shape=(n, out.num_cols),
    )
    _finalize(out)
    telemetry.record(
        "structure_patched",
        jobs=n,
        num_cols=out.num_cols,
        clone=False,
        segments_reused=segments_reused,
    )
    return out


def _finalize(structure: ProblemStructure) -> None:
    """Apply the cold builder's read-only discipline to a patched result."""
    for arr in (
        structure.first_slice,
        structure.span,
        structure.num_paths,
        structure.job_offset,
        structure.col_job,
        structure.col_slice,
        structure.col_path,
        structure.col_len,
        structure.demands,
        structure.cap_row_edge,
        structure.cap_row_slice,
        structure.cap_rhs,
    ):
        arr.setflags(write=False)
