"""Shared LP-assembly helpers: the engine solve layer's block algebra.

``build_stage1_lp``, ``build_stage2_lp`` and ``build_subret_lp`` all
glue the same two sparse blocks — the capacity matrix and the demand
matrix — and Algorithm 1 walks the same paths, windows and capacities
on every call.  This module builds each of those once per structure and
keeps it in the structure's private ``_assembly_cache``:

* ``capacity_floor`` — ``[capacity_matrix; -demand_matrix]``, the rows
  of stage 2 and SUB-RET, read-only.  As a lone block its CSR arrays
  are already the HiGHS-ready ``(indptr, indices, data)``
  (:func:`repro.lp.solver._stacked_rows`), so every alpha of the
  Remark-1 ladder and every SUB-RET solve over the structure loads them
  without re-stacking or copying.
* ``stage1`` — the stage-1 equality and capacity blocks (they embed
  ``-demands``).
* ``(family, "objective")`` and ``(family, "form")`` — an LP family's
  objective vector and the shared dict in which
  :func:`repro.lp.solver.solve_highs` keeps its cost and bound vectors
  (see :func:`capacity_floor_lp`).
* ``greedy`` — Algorithm 1's tables (:func:`greedy_tables`).

The arrays handed to HiGHS are byte-identical to a fresh assembly; only
the work of rebuilding them goes.  A clone
(:func:`repro.engine.layout.patch_structure`) differs from its donor in
the demands alone, so it shares exactly the entries named in
:data:`DEMAND_INDEPENDENT` (plus ``stage1`` when the demands are equal).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..lp.model import ProblemStructure, _index_dtype
from ..lp.solver import LinearProgram

__all__ = [
    "DEMAND_INDEPENDENT",
    "GreedyTables",
    "append_column",
    "capacity_floor_blocks",
    "capacity_floor_lp",
    "greedy_tables",
    "stage1_blocks",
]

#: Assembly-cache keys whose values do not depend on the jobs' demands.
DEMAND_INDEPENDENT = (
    "capacity_floor",
    "greedy",
    ("subret", "objective"),
    ("subret", "form"),
)


def _assembly_cache(structure: ProblemStructure) -> dict:
    """The structure's private assembled-matrix memo (created on demand)."""
    cache = getattr(structure, "_assembly_cache", None)
    if cache is None:
        cache = {}
        structure._assembly_cache = cache
    return cache


def _cached(structure: ProblemStructure, key, make: Callable[[], object]):
    """``structure``'s assembly-cache entry ``key``, made on first use."""
    cache = _assembly_cache(structure)
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
    return value


def _read_only(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Freeze ``matrix``'s arrays: cached blocks are shared by every LP."""
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.setflags(write=False)
    return matrix


def append_column(matrix: sp.spmatrix, values: np.ndarray | None = None) -> sp.csr_matrix:
    """``matrix`` with one extra column hstacked on: zeros, or ``values``.

    The stage-1 LP appends a ``Z`` variable to the shared column space;
    its equality block needs a ``-d`` column, its capacity block a zero
    column.  Both are this one helper.  The CSR arrays are written
    directly (the new column is every row's last entry), which gives
    ``sp.hstack``'s arrays and dtypes at a fraction of its cost.
    """
    matrix = sp.csr_matrix(matrix)
    rows, cols = matrix.shape
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    if values is None:
        return sp.csr_matrix(
            (data.copy(), indices.copy(), indptr.copy()), shape=(rows, cols + 1)
        )
    out_ptr = indptr + np.arange(rows + 1, dtype=indptr.dtype)
    last = out_ptr[1:] - 1
    old = np.ones(out_ptr[-1], dtype=bool)
    old[last] = False
    out_indices = np.empty(out_ptr[-1], dtype=indices.dtype)
    out_indices[old] = indices
    out_indices[last] = cols
    out_data = np.empty(out_ptr[-1], dtype=float)
    out_data[old] = data
    out_data[last] = np.asarray(values, dtype=float)
    return sp.csr_matrix((out_data, out_indices, out_ptr), shape=(rows, cols + 1))


def _capacity_floor_matrix(structure: ProblemStructure) -> sp.csr_matrix:
    """``[capacity_matrix; -demand_matrix]`` with its CSR arrays written
    directly: ``sp.vstack``'s arrays and dtypes without its checks."""
    cap, dem = structure.capacity_matrix, structure.demand_matrix
    rows = cap.shape[0] + dem.shape[0]
    dtype = _index_dtype(rows, structure.num_cols, cap.nnz + dem.nnz)
    return _read_only(
        sp.csr_matrix(
            (
                np.concatenate((cap.data, -dem.data)),
                np.concatenate((cap.indices, dem.indices)).astype(dtype, copy=False),
                np.concatenate((cap.indptr, dem.indptr[1:] + cap.nnz)).astype(
                    dtype, copy=False
                ),
            ),
            shape=(rows, structure.num_cols),
        )
    )


def capacity_floor_blocks(
    structure: ProblemStructure, floor_rhs: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray]:
    """``(a_ub, b_ub)`` of a "capacity rows + per-job delivery floors" LP.

    The rows are ``[capacity_matrix; -demand_matrix] <= [cap_rhs;
    floor_rhs]``: stage 2 passes the fairness floors
    ``-(1 - alpha) Z* d`` and SUB-RET the completion floors ``-d``.  The
    stacked matrix is rhs-independent, so it is built once per structure
    and shared by every such solve over it; only ``b_ub``'s tail is new.
    """
    a_ub = _cached(
        structure, "capacity_floor", lambda: _capacity_floor_matrix(structure)
    )
    b_ub = np.concatenate((structure.cap_rhs, np.asarray(floor_rhs, dtype=float)))
    return a_ub, b_ub


def capacity_floor_lp(
    structure: ProblemStructure,
    family: str,
    objective: Callable[[], np.ndarray],
    floor_rhs: np.ndarray,
    *,
    maximize: bool,
) -> LinearProgram:
    """One LP of ``family`` over the capacity-floor rows of ``structure``.

    Every LP of one family over one structure has the same objective
    (``objective()`` runs once and is cached read-only), the same
    default bounds and the same rows; only the floors differ.  They
    therefore share one HiGHS form, the dict in which
    :func:`~repro.lp.solver.solve_highs` keeps the cost, column bounds
    and row lower bounds it derives on its first solve.
    """

    def make_objective() -> np.ndarray:
        vector = np.asarray(objective(), dtype=float)
        vector.setflags(write=False)
        return vector

    a_ub, b_ub = capacity_floor_blocks(structure, floor_rhs)
    problem = LinearProgram(
        objective=_cached(structure, (family, "objective"), make_objective),
        a_ub=a_ub,
        b_ub=b_ub,
        maximize=maximize,
    )
    problem._highs_form = _cached(structure, (family, "form"), dict)
    return problem


def stage1_blocks(
    structure: ProblemStructure,
) -> tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix, np.ndarray]:
    """``(a_eq, b_eq, a_ub, b_ub)`` of the stage-1 MCF LP (columns + ``Z``).

    Equalities ``[demand_matrix | -d] [x; Z] = 0`` define the concurrent
    throughput; inequalities ``[capacity_matrix | 0] [x; Z] <= C`` are
    constraint (3).  Both matrices are cached on the structure.
    """
    a_eq, a_ub = _cached(
        structure,
        "stage1",
        lambda: (
            _read_only(append_column(structure.demand_matrix, -structure.demands)),
            _read_only(append_column(structure.capacity_matrix)),
        ),
    )
    return a_eq, np.zeros(len(structure.jobs)), a_ub, structure.cap_rhs


class GreedyTables(NamedTuple):
    """What Algorithm 1 reads of a structure besides the assignment.

    Python lists, because the walk runs on Python ints and floats:
    per-job window starts, spans, column offsets and path edge ids, the
    slice lengths, and per slice the jobs whose window admits it.  Every
    call over the structure (and its clones) reads the same lists, so a
    caller that reorders one works on a copy.
    """

    starts: list[int]
    spans: list[int]
    offsets: list[int]
    lengths: list[float]
    path_edges: list[list[tuple[int, ...]]]
    active_in: list[list[int]]


def _greedy_tables(structure: ProblemStructure) -> GreedyTables:
    starts = structure.first_slice.tolist()
    spans = structure.span.tolist()
    num_slices = structure.grid.num_slices
    # Jobs whose window admits each slice, in job order.
    active_in: list[list[int]] = [[] for _ in range(num_slices)]
    for i, (start, count) in enumerate(zip(starts, spans)):
        for j in range(start, min(start + count, num_slices)):
            active_in[j].append(i)
    return GreedyTables(
        starts=starts,
        spans=spans,
        offsets=structure.job_offset.tolist(),
        lengths=structure.grid.lengths.tolist(),
        path_edges=[[p.edge_ids for p in paths] for paths in structure.paths],
        active_in=active_in,
    )


def greedy_tables(structure: ProblemStructure) -> GreedyTables:
    """Algorithm 1's per-structure tables, built once (demand-independent)."""
    return _cached(structure, "greedy", lambda: _greedy_tables(structure))
