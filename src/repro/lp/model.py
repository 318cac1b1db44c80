"""Problem structure: variables and constraint matrices over (job, path, slice).

Every optimization problem in the paper — stage 1 (MCF), stage 2
(weighted throughput) and SUB-RET — shares one variable space: a
wavelength count ``x_i(p, j)`` for each job ``i``, allowed path
``p ∈ P(s_i, d_i)`` and allowed time slice ``j``.  This module builds
that space once as a :class:`ProblemStructure` and derives the shared
sparse constraint blocks from it:

* the **capacity block** — one row per (edge, slice) pair that any
  allowed path crosses, expressing constraint (3),
* the **demand block** — one row per job with entries ``LEN(j)``, the
  left-hand side of constraints (2), (8) and (15).

Column layout
-------------

Columns are grouped by job, then by path, then by slice in increasing
order.  A job's allowed slices form a contiguous range (its window), so
the column of ``(job i, path p, slice j)`` is

``job_offset[i] + p * span_i + (j - first_slice_i)``,

which both the vectorized assembly here and the greedy pass in
:mod:`repro.core.lpdar` exploit.  Demands are normalized by the network's
``wavelength_rate`` (paper Section II-B.2), so one unit of ``x`` held for
one slice of length ``LEN`` moves ``LEN`` normalized volume.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ..errors import ValidationError
from ..network.graph import Network
from ..obs import current

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.capacity import CapacityProfile
from ..network.paths import Path, build_path_sets
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet

__all__ = ["ProblemStructure", "column_layout", "job_capacity_fragment"]

Node = Hashable


def job_capacity_fragment(
    paths: Sequence[Path], span: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One job's capacity-block sparsity pattern, in relative coordinates.

    Returns three parallel read-only ``int64`` arrays
    ``(edge, rel_slice, rel_col)``: entry ``t`` says column
    ``job_offset + rel_col[t]`` loads edge ``edge[t]`` on slice
    ``first_slice + rel_slice[t]``.  The pattern depends only on the
    job's path edge ids and its window *span* — not on where the window
    sits on the grid or where the job's columns start — so the engine's
    layout layer caches it across RET probes, simulator epochs and jobs
    that happen to share ``(paths, span)``.
    """
    rel = np.arange(span, dtype=np.int64)
    # Each edge of each path is loaded on every allowed slice; path p's
    # columns are p * span + rel.
    edge_ids = [path.edge_ids for path in paths]
    edges = np.fromiter(
        (e for ids in edge_ids for e in ids), dtype=np.int64
    )
    path_of_edge = np.repeat(
        np.arange(len(paths), dtype=np.int64), [len(ids) for ids in edge_ids]
    )
    edge = np.repeat(edges, span)
    rel_slice = np.tile(rel, len(edges))
    rel_col = np.repeat(path_of_edge * span, span) + rel_slice
    for arr in (edge, rel_slice, rel_col):
        arr.setflags(write=False)
    return edge, rel_slice, rel_col


_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(*extents: int) -> type:
    """SciPy's CSR index dtype for a matrix whose shape and nnz are ``extents``.

    ``int32`` when every extent fits, as ``scipy.sparse`` chooses it, so
    arrays written in this dtype pass its constructor unconverted.
    """
    return np.int32 if max(extents) <= _INT32_MAX else np.int64


def column_layout(
    first_slice: np.ndarray,
    span: np.ndarray,
    cols_per_job: np.ndarray,
    job_offset: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(col_job, col_slice, col_path)`` of the job-major column space.

    Job ``i`` owns columns ``job_offset[i]:job_offset[i + 1]``: its
    paths in order, each over the ``span[i]`` slices from
    ``first_slice[i]``.  All three are ``int64``.
    """
    col_job = np.repeat(np.arange(len(span), dtype=np.int64), cols_per_job)
    within = np.arange(job_offset[-1], dtype=np.int64) - job_offset[col_job]
    col_span = span[col_job]
    return col_job, first_slice[col_job] + within % col_span, within // col_span


class ProblemStructure:
    """The shared variable space and constraint blocks of one instance.

    Parameters
    ----------
    network:
        The wavelength-switched network.
    jobs:
        Jobs to schedule.  Each must have at least one allowed path and
        at least one slice fully inside its window, otherwise a
        :class:`ValidationError` identifies the offending job (use
        admission control to drop unschedulable requests first).
    grid:
        Time discretization.  Must cover the latest job end time.
    k_paths:
        Paths per origin-destination pair (the paper uses 4–8).
    path_sets:
        Optional precomputed paths per OD pair (e.g. reused across RET
        iterations); overrides ``k_paths`` lookup for pairs present.
    fragment_cache:
        Optional mutable mapping shared across builds (normally owned by
        :class:`~repro.engine.layout.LayoutLayer`): per-job capacity
        fragments keyed on ``(path edge ids, span)`` are looked up
        before being recomputed, so rebuilds over a changed grid reuse
        every unchanged per-job segment.  Hits and builds count as
        ``layout_fragment_hits`` / ``layout_fragment_builds``.

    Notes
    -----
    The structure is immutable after construction; all solver front-ends
    in :mod:`repro.core` take it by reference.  Assembly is timed under a
    ``"structure_build"`` telemetry span and a ``structure`` record
    captures the instance's dimensions (jobs, columns, capacity rows,
    nnz).
    """

    def __init__(
        self,
        network: Network,
        jobs: JobSet,
        grid: TimeGrid,
        k_paths: int = 4,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None = None,
        capacity_profile: "CapacityProfile | None" = None,
        fragment_cache: dict | None = None,
    ) -> None:
        telemetry = current()
        with telemetry.span("structure_build"):
            self._build(
                network,
                jobs,
                grid,
                k_paths,
                path_sets,
                capacity_profile,
                fragment_cache,
            )
        telemetry.record(
            "structure",
            jobs=len(jobs),
            num_cols=self.num_cols,
            cap_rows=int(self.capacity_matrix.shape[0]),
            nnz=int(self.capacity_matrix.nnz + self.demand_matrix.nnz),
            slices=self.grid.num_slices,
        )
        telemetry.count("structures_built")

    def _build(
        self,
        network: Network,
        jobs: JobSet,
        grid: TimeGrid,
        k_paths: int,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None,
        capacity_profile: "CapacityProfile | None",
        fragment_cache: dict | None = None,
    ) -> None:
        if len(jobs) == 0:
            raise ValidationError("cannot build a problem over zero jobs")
        if k_paths < 1:
            raise ValidationError(f"k_paths must be >= 1, got {k_paths}")
        self.network = network
        self.jobs = jobs
        self.grid = grid
        self.k_paths = k_paths
        if capacity_profile is not None:
            if capacity_profile.network is not network:
                raise ValidationError(
                    "capacity profile was built for a different network"
                )
            if capacity_profile.grid != grid:
                raise ValidationError(
                    "capacity profile was built for a different time grid"
                )
        self.capacity_profile = capacity_profile

        max_end = jobs.max_end()
        if max_end > grid.end + 1e-9:
            raise ValidationError(
                f"grid ends at {grid.end} but a job ends at {max_end}; "
                "extend the grid to cover every job window"
            )

        # Resolve allowed paths per job.
        if path_sets is None:
            path_sets = build_path_sets(network, jobs.od_pairs(), k_paths)
        self.paths: list[list[Path]] = []
        for job in jobs:
            pair = (job.source, job.dest)
            pset = list(path_sets.get(pair) or ())
            if not pset:
                pset = build_path_sets(network, [pair], k_paths)[pair]
            if not pset:
                raise ValidationError(
                    f"job {job.id!r}: no path from {job.source!r} to "
                    f"{job.dest!r}"
                )
            self.paths.append(list(pset[:k_paths]))

        # Allowed slice ranges per job (contiguous, paper constraint (4)).
        first_slice: list[int] = []
        span: list[int] = []
        for job in jobs:
            window = grid.window_slices(job.start, job.end)
            if len(window) == 0:
                raise ValidationError(
                    f"job {job.id!r}: window [{job.start}, {job.end}] "
                    "contains no whole time slice"
                )
            first_slice.append(window.start)
            span.append(len(window))
        self.first_slice = np.array(first_slice, dtype=np.int64)
        self.span = np.array(span, dtype=np.int64)

        self.num_paths = np.array([len(p) for p in self.paths], dtype=np.int64)

        # Column layout.
        cols_per_job = self.num_paths * self.span
        self.job_offset = np.zeros(len(jobs) + 1, dtype=np.int64)
        np.cumsum(cols_per_job, out=self.job_offset[1:])
        self.num_cols = int(self.job_offset[-1])

        self.col_job, self.col_slice, self.col_path = column_layout(
            self.first_slice, self.span, cols_per_job, self.job_offset
        )
        self.col_len = grid.lengths[self.col_slice]
        for arr in (
            self.first_slice,
            self.span,
            self.num_paths,
            self.job_offset,
            self.col_job,
            self.col_slice,
            self.col_path,
            self.col_len,
        ):
            arr.setflags(write=False)

        # Normalized demands (paper: sizes divided by wavelength capacity).
        self.demands = jobs.sizes() / network.wavelength_rate
        self.demands.setflags(write=False)

        self._assembly_cache: dict = {}
        self._build_capacity_block(fragment_cache)
        self._build_demand_block()

    # ------------------------------------------------------------------
    # Constraint blocks
    # ------------------------------------------------------------------
    def _build_capacity_block(self, fragment_cache: dict | None = None) -> None:
        """Rows of constraint (3): one per (edge, slice) actually used.

        Per-job sparsity patterns come from
        :func:`job_capacity_fragment` in window-relative coordinates and
        are shifted to absolute rows/columns here; a shared
        ``fragment_cache`` skips recomputing patterns seen in previous
        builds (same paths and span, any window position).

        The CSR arrays are written directly: one sort of the entries by
        ``(row key, column)`` gives the rows in increasing ``(edge,
        slice)`` order with sorted columns, the canonical form (and index
        dtype) ``coo_matrix(...).tocsr()`` would produce.
        """
        num_slices = self.grid.num_slices
        fragments = []
        telemetry = current()
        for i, span in enumerate(self.span.tolist()):
            fragment = None
            key = None
            if fragment_cache is not None:
                key = (tuple(p.edge_ids for p in self.paths[i]), span)
                fragment = fragment_cache.get(key)
            if fragment is None:
                fragment = job_capacity_fragment(self.paths[i], span)
                if fragment_cache is not None:
                    fragment_cache[key] = fragment
                telemetry.count("layout_fragment_builds")
            else:
                telemetry.count("layout_fragment_hits")
            fragments.append(fragment)
        edge, rel_slice, rel_col = (np.concatenate(part) for part in zip(*fragments))
        sizes = [len(fragment[0]) for fragment in fragments]
        row_keys = edge * num_slices + (
            np.repeat(self.first_slice, sizes) + rel_slice
        )
        cols = np.repeat(self.job_offset[:-1], sizes) + rel_col

        # (row key, column) pairs are distinct, so any sort gives one order.
        order = np.argsort(row_keys * self.num_cols + cols)
        keys = row_keys[order]
        nnz = len(keys)
        new_row = np.empty(nnz, dtype=bool)
        new_row[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new_row[1:])
        first = np.flatnonzero(new_row)
        unique_keys = keys[first]
        num_rows = len(first)
        index_dtype = _index_dtype(num_rows, self.num_cols, nnz)
        indptr = np.empty(num_rows + 1, dtype=index_dtype)
        indptr[:-1] = first
        indptr[-1] = nnz
        self.cap_row_edge = unique_keys // num_slices
        self.cap_row_slice = unique_keys % num_slices
        if self.capacity_profile is not None:
            self.cap_rhs = self.capacity_profile.matrix[
                self.cap_row_edge, self.cap_row_slice
            ].astype(float)
        else:
            capacities = self.network.capacities()
            self.cap_rhs = capacities[self.cap_row_edge].astype(float)
        self.capacity_matrix = sp.csr_matrix(
            (np.ones(nnz), cols[order].astype(index_dtype), indptr),
            shape=(num_rows, self.num_cols),
        )
        self.cap_row_edge.setflags(write=False)
        self.cap_row_slice.setflags(write=False)
        self.cap_rhs.setflags(write=False)

    def _build_demand_block(self) -> None:
        """Rows of constraints (2)/(8)/(15): per-job ``sum x * LEN``.

        The CSR form is known in closed form: columns are job-major, so
        ``indptr`` *is* ``job_offset`` and the indices run
        ``0..num_cols-1``.
        """
        num_jobs = len(self.jobs)
        index_dtype = _index_dtype(num_jobs, self.num_cols)
        self.demand_matrix = sp.csr_matrix(
            (
                self.col_len.copy(),
                np.arange(self.num_cols, dtype=index_dtype),
                self.job_offset.astype(index_dtype),
            ),
            shape=(num_jobs, self.num_cols),
        )

    # ------------------------------------------------------------------
    # Column arithmetic
    # ------------------------------------------------------------------
    def column(self, job: int, path: int, slice_index: int) -> int:
        """Flat column index of ``x_job(path, slice_index)``."""
        if not 0 <= job < len(self.jobs):
            raise ValidationError(f"job index {job} out of range")
        if not 0 <= path < self.num_paths[job]:
            raise ValidationError(
                f"path index {path} out of range for job {job}"
            )
        first = int(self.first_slice[job])
        if not first <= slice_index < first + int(self.span[job]):
            raise ValidationError(
                f"slice {slice_index} outside job {job}'s allowed window "
                f"[{first}, {first + int(self.span[job])})"
            )
        return (
            int(self.job_offset[job])
            + path * int(self.span[job])
            + (slice_index - first)
        )

    def job_columns(self, job: int) -> slice:
        """Contiguous column range of all of ``job``'s variables."""
        if not 0 <= job < len(self.jobs):
            raise ValidationError(f"job index {job} out of range")
        return slice(int(self.job_offset[job]), int(self.job_offset[job + 1]))

    def allowed_slices(self, job: int) -> range:
        """The contiguous allowed slice range of ``job``."""
        if not 0 <= job < len(self.jobs):
            raise ValidationError(f"job index {job} out of range")
        first = int(self.first_slice[job])
        return range(first, first + int(self.span[job]))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def delivered(self, x: np.ndarray) -> np.ndarray:
        """Normalized volume delivered per job: ``sum_j,p x * LEN(j)``."""
        x = self._check_x(x)
        return self.demand_matrix @ x

    def throughputs(self, x: np.ndarray) -> np.ndarray:
        """Per-job throughput ``Z_i = delivered_i / d_i`` (paper eq. (6))."""
        return self.delivered(x) / self.demands

    def weighted_throughput(self, x: np.ndarray) -> float:
        """Paper objective (7): ``sum_i Z_i D_i / sum_i D_i``."""
        return float(self.delivered(x).sum() / self.demands.sum())

    def link_loads(self, x: np.ndarray) -> np.ndarray:
        """Dense ``(num_edges, num_slices)`` wavelength load matrix."""
        x = self._check_x(x)
        loads = np.zeros(
            (self.network.num_edges, self.grid.num_slices), dtype=float
        )
        row_loads = self.capacity_matrix @ x
        loads[self.cap_row_edge, self.cap_row_slice] = row_loads
        return loads

    def capacity_grid(self) -> np.ndarray:
        """Dense ``(num_edges, num_slices)`` float matrix of ``C_e(j)``."""
        if self.capacity_profile is not None:
            return self.capacity_profile.matrix.astype(float)
        caps = self.network.capacities().astype(float)
        return np.repeat(caps[:, None], self.grid.num_slices, axis=1)

    def residual_capacity(self, x: np.ndarray) -> np.ndarray:
        """Dense ``(num_edges, num_slices)`` remaining-wavelength matrix."""
        return self.capacity_grid() - self.link_loads(x)

    def capacity_violation(self, x: np.ndarray) -> float:
        """Largest capacity overshoot across (edge, slice) rows (0 if none)."""
        x = self._check_x(x)
        excess = self.capacity_matrix @ x - self.cap_rhs
        return float(max(excess.max(initial=0.0), 0.0))

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_cols,):
            raise ValidationError(
                f"assignment vector must have shape ({self.num_cols},), "
                f"got {x.shape}"
            )
        return x

    def __repr__(self) -> str:
        return (
            f"ProblemStructure(jobs={len(self.jobs)}, "
            f"cols={self.num_cols}, cap_rows={self.capacity_matrix.shape[0]}, "
            f"slices={self.grid.num_slices})"
        )
