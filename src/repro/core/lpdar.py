"""LPDAR: the paper's heuristic for integer wavelength assignment.

Standard MIP solvers cannot handle the stage-2 / SUB-RET integer programs
at research-network scale, so the paper rounds the LP relaxation in two
steps:

1. **LPD** (*Linear Programming-Discretized*): truncate every fractional
   ``x_i(p, j)`` down to the nearest integer.  Always capacity-feasible,
   but can discard a large share of the assigned bandwidth when links
   carry few wavelengths.
2. **LPDAR** (*... with Adjusted Rates*): Algorithm 1 — walk every
   (slice, job, path) triple, measure the path's remaining wavelengths
   ``RB_p = min_{e in p} RB_e``, grant them to the path and debit every
   edge on it.

Besides the paper's visitation order this module implements two variants
used by the ablation benchmarks: *deficit-first* (within each slice,
serve the job furthest from completing first, and never grant a path more
than the job still needs) and *random* order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..engine.assembly import greedy_tables
from ..errors import ValidationError
from ..lp.model import ProblemStructure
from ..obs import current

__all__ = ["GreedyOrder", "LpdarResult", "discretize", "greedy_adjust", "lpdar"]

GreedyOrder = Literal["paper", "deficit_first", "random"]

#: Fractional values within this distance below an integer round *up*;
#: protects against solver noise like 2.9999999996 flooring to 2.
DISCRETIZE_TOL = 1e-7


def discretize(x: np.ndarray, tol: float = DISCRETIZE_TOL) -> np.ndarray:
    """LPD step: truncate a fractional assignment to integers.

    Values are floored after adding ``tol`` so that near-integers produced
    by floating-point solver noise are not knocked down a full unit.
    """
    x = np.asarray(x, dtype=float)
    if (x < -tol).any():
        raise ValidationError("assignment has negative entries")
    return np.floor(np.maximum(x, 0.0) + tol)


def greedy_adjust(
    structure: ProblemStructure,
    x_int: np.ndarray,
    order: GreedyOrder = "paper",
    targets: np.ndarray | None = None,
    cap_at_target: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Algorithm 1: grant leftover wavelengths to paths, slice by slice.

    Parameters
    ----------
    structure:
        The problem the assignment lives in.
    x_int:
        Integer assignment (typically the LPD truncation).  Not modified.
    order:
        Visitation order of jobs within a slice.  ``"paper"`` follows the
        paper exactly (job index order); ``"deficit_first"`` sorts jobs by
        remaining unmet demand, largest first, and skips completed jobs;
        ``"random"`` shuffles per slice (needs ``rng``).
    targets:
        Per-job normalized volume targets, used by ``deficit_first``
        ordering and by ``cap_at_target``.  Defaults to the jobs' demands
        ``d_i`` — the natural target for SUB-RET, where delivering more
        than ``D_i`` is useless.
    cap_at_target:
        When True, never grant a path more wavelengths than the job's
        remaining deficit requires (leaves the surplus to later paths and
        jobs).  The paper's Algorithm 1 does not cap; keep False for a
        faithful run.
    rng:
        Randomness source for ``order="random"``.

    Returns
    -------
    numpy.ndarray
        A new integer assignment, entrywise ``>= x_int``, that never
        exceeds any link capacity.

    The pass is timed under a ``"greedy_adjust"`` telemetry span and a
    ``greedy_adjust`` record counts the (slice, job, path) triples
    visited and wavelengths granted.
    """
    x = np.asarray(x_int, dtype=float)
    if x.shape != (structure.num_cols,):
        raise ValidationError(
            f"x_int must have shape ({structure.num_cols},), got {x.shape}"
        )
    if (np.abs(x - np.rint(x)) > 1e-9).any() or (x < 0).any():
        raise ValidationError("greedy_adjust needs a non-negative integer input")
    if order == "random" and rng is None:
        raise ValidationError('order="random" requires an rng')
    if order not in ("paper", "deficit_first", "random"):
        raise ValidationError(f"unknown greedy order {order!r}")

    telemetry = current()
    visited = 0
    grants_made = 0
    granted_wavelengths = 0
    with telemetry.span("greedy_adjust"):
        # Paths, windows and lengths are the structure's (built once, see
        # engine.assembly.greedy_tables); a call computes only the loads,
        # the deficits and the walk.  The walk reads the residual of
        # capacity rows only, (edge, slice) pairs an allowed path crosses
        # in its job's window, so the rest of the grid stays zero; every
        # capacity is non-negative, so only a loaded row can be short.
        tables = greedy_tables(structure)
        remaining = structure.cap_rhs - structure.capacity_matrix @ x
        if remaining.min(initial=0.0) < -1e-9:
            raise ValidationError("input assignment already violates capacity")

        num_jobs = len(structure.jobs)
        if targets is None:
            targets = structure.demands
        else:
            targets = np.asarray(targets, dtype=float)
            if targets.shape != (num_jobs,):
                raise ValidationError(
                    f"targets must have shape ({num_jobs},), got {targets.shape}"
                )
        # The walk runs on Python ints and floats: per slice, the residual
        # column is a list and a path's bottleneck is ``min`` over its
        # edge ids.  The deficits see the same IEEE arithmetic as NumPy
        # scalars would, so the result is the same ``x``.
        deficits = (targets - structure.demand_matrix @ x).tolist()
        residual = np.zeros(
            (structure.grid.num_slices, structure.network.num_edges), dtype=np.int64
        )
        residual[structure.cap_row_slice, structure.cap_row_edge] = np.rint(
            np.maximum(remaining, 0.0)
        )
        columns = residual.tolist()
        x_out = x.tolist()
        starts = tables.starts
        spans = tables.spans
        offsets = tables.offsets
        lengths = tables.lengths
        path_edges = tables.path_edges

        for j, active in enumerate(tables.active_in):
            if not active:
                continue
            if order == "random":
                active = rng.permutation(np.array(active, dtype=np.intp))
                active = active.tolist()
            elif order == "deficit_first":
                active = sorted(active, key=lambda i: -deficits[i])
            column = columns[j]
            bottleneck = column.__getitem__
            len_j = lengths[j]
            for i in active:
                if cap_at_target and deficits[i] <= 1e-12:
                    continue
                base = offsets[i] + (j - starts[i])
                sp_i = spans[i]
                paths = path_edges[i]
                visited += len(paths)
                for p, edges in enumerate(paths):
                    grant = min(map(bottleneck, edges))
                    if grant <= 0:
                        continue
                    if cap_at_target:
                        needed = math.ceil(deficits[i] / len_j - 1e-12)
                        grant = min(grant, needed)
                        if grant <= 0:
                            continue
                    x_out[base + p * sp_i] += grant
                    for e in edges:
                        column[e] -= grant
                    deficits[i] -= grant * len_j
                    grants_made += 1
                    granted_wavelengths += grant
        x = np.array(x_out, dtype=float)
    telemetry.record(
        "greedy_adjust",
        order=order,
        visited_triples=visited,
        grants=grants_made,
        granted_wavelengths=granted_wavelengths,
    )
    telemetry.count("greedy_visited_triples", visited)
    telemetry.count("greedy_granted_wavelengths", granted_wavelengths)
    return x


@dataclass(frozen=True)
class LpdarResult:
    """The three assignments the paper compares (all same shape).

    Attributes
    ----------
    x_lp:
        The fractional LP-relaxation optimum (upper-bound benchmark).
    x_lpd:
        LPD: the truncated integer assignment.
    x_lpdar:
        LPDAR: LPD after the Algorithm 1 greedy adjustment.
    """

    x_lp: np.ndarray
    x_lpd: np.ndarray
    x_lpdar: np.ndarray


def lpdar(
    structure: ProblemStructure,
    x_lp: np.ndarray,
    order: GreedyOrder = "paper",
    targets: np.ndarray | None = None,
    cap_at_target: bool = False,
    rng: np.random.Generator | None = None,
) -> LpdarResult:
    """Run the full LP -> LPD -> LPDAR pipeline on a fractional solution.

    The truncation is timed under a ``"discretize"`` telemetry span.
    """
    with current().span("discretize"):
        x_lpd = discretize(x_lp)
    x_lpdar = greedy_adjust(
        structure,
        x_lpd,
        order=order,
        targets=targets,
        cap_at_target=cap_at_target,
        rng=rng,
    )
    return LpdarResult(
        x_lp=np.asarray(x_lp, dtype=float), x_lpd=x_lpd, x_lpdar=x_lpdar
    )
