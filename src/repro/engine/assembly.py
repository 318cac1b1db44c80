"""Shared LP-assembly helpers: the engine solve layer's block algebra.

``build_stage1_lp``, ``build_stage2_lp`` and ``build_subret_lp`` all
glue the same two sparse blocks — the capacity matrix and the demand
matrix — with near-identical ``sp.vstack`` / ``sp.hstack`` boilerplate.
This module holds that algebra once, and exploits a fact the ad-hoc
copies could not: the stacked matrices depend only on the structure,
never on the right-hand side, so they are cached *on the structure* and
reused across alpha escalations (stage 2 changes only the fairness rhs),
across repeat SUB-RET solves of one layout, and across anything else
that re-assembles the same instance.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..lp.model import ProblemStructure

__all__ = ["append_column", "capacity_floor_blocks", "stage1_blocks"]


def _assembly_cache(structure: ProblemStructure) -> dict:
    """The structure's private assembled-matrix memo (created on demand)."""
    cache = getattr(structure, "_assembly_cache", None)
    if cache is None:
        cache = {}
        structure._assembly_cache = cache
    return cache


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


def capacity_floor_blocks(
    structure: ProblemStructure, floor_rhs: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray]:
    """``(a_ub, b_ub)`` of a "capacity rows + per-job delivery floors" LP.

    The rows are ``[capacity_matrix; -demand_matrix] <= [cap_rhs;
    floor_rhs]``: stage 2 passes the fairness floors
    ``-(1 - alpha) Z* d`` and SUB-RET the completion floors ``-d``.  The
    stacked matrix is rhs-independent, so it is built once per structure
    and shared by every such solve over it.
    """
    cache = _assembly_cache(structure)
    a_ub = cache.get("capacity_floor")
    if a_ub is None:
        a_ub = sp.vstack(
            [structure.capacity_matrix, -structure.demand_matrix], format="csr"
        )
        cache["capacity_floor"] = a_ub
    b_ub = np.concatenate([structure.cap_rhs, np.asarray(floor_rhs, dtype=float)])
    return a_ub, b_ub


def stage1_blocks(
    structure: ProblemStructure,
) -> tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix, np.ndarray]:
    """``(a_eq, b_eq, a_ub, b_ub)`` of the stage-1 MCF LP (columns + ``Z``).

    Equalities ``[demand_matrix | -d] [x; Z] = 0`` define the concurrent
    throughput; inequalities ``[capacity_matrix | 0] [x; Z] <= C`` are
    constraint (3).  Both matrices are cached on the structure.
    """
    cache = _assembly_cache(structure)
    blocks = cache.get("stage1")
    if blocks is None:
        a_eq = append_column(structure.demand_matrix, -structure.demands)
        a_ub = append_column(structure.capacity_matrix)
        blocks = (a_eq, a_ub)
        cache["stage1"] = blocks
    a_eq, a_ub = blocks
    return a_eq, np.zeros(len(structure.jobs)), a_ub, structure.cap_rhs
