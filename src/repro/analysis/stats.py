"""Schedule statistics: how multipath and time-varying is a solution?

The paper's framework owes its efficiency to two freedoms earlier
reservation systems lack (Section II-A): a job may ride *multiple paths
at once*, and its per-path wavelength count may *change every slice*.
:func:`schedule_statistics` quantifies how much a given assignment
actually uses those freedoms — useful both for analysis and for
demonstrating why rigid baselines (one path, one constant rate) leave
capacity stranded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lp.model import ProblemStructure

__all__ = ["ScheduleStatistics", "schedule_statistics"]


@dataclass(frozen=True)
class ScheduleStatistics:
    """Aggregate shape metrics of one assignment.

    Attributes
    ----------
    num_jobs_served:
        Jobs with any positive assignment.
    mean_paths_used:
        Average number of distinct paths carrying positive flow per
        served job (1.0 = effectively single-path).
    max_paths_used:
        Largest path count any job uses.
    multipath_job_fraction:
        Share of served jobs using two or more paths simultaneously on
        at least one slice.
    mean_rate_changes:
        Average number of slices on which a served job's total
        wavelength count differs from the previous slice (within its
        window) — 0 for constant-rate reservations.
    time_varying_job_fraction:
        Share of served jobs whose rate changes at least once.
    active_slice_fraction:
        Mean over served jobs of (slices with positive rate) / (window
        slices) — low values mean bursty, packed schedules.
    """

    num_jobs_served: int
    mean_paths_used: float
    max_paths_used: int
    multipath_job_fraction: float
    mean_rate_changes: float
    time_varying_job_fraction: float
    active_slice_fraction: float


def schedule_statistics(
    structure: ProblemStructure, x: np.ndarray, tol: float = 1e-9
) -> ScheduleStatistics:
    """Compute :class:`ScheduleStatistics` for an assignment vector."""
    x = np.asarray(x, dtype=float)
    paths_used: list[int] = []
    concurrent_multipath: list[bool] = []
    rate_changes: list[int] = []
    active_fraction: list[float] = []

    for i in range(len(structure.jobs)):
        span = int(structure.span[i])
        block = x[structure.job_columns(i)].reshape(
            int(structure.num_paths[i]), span
        )
        if block.sum() <= tol:
            continue
        per_path_total = block.sum(axis=1)
        paths_used.append(int(np.count_nonzero(per_path_total > tol)))
        concurrent = np.count_nonzero(block > tol, axis=0)
        concurrent_multipath.append(bool(np.any(concurrent >= 2)))
        rates = block.sum(axis=0)
        rate_changes.append(int(np.count_nonzero(np.diff(rates) != 0)))
        active_fraction.append(float(np.count_nonzero(rates > tol) / span))

    if not paths_used:
        return ScheduleStatistics(
            num_jobs_served=0,
            mean_paths_used=float("nan"),
            max_paths_used=0,
            multipath_job_fraction=float("nan"),
            mean_rate_changes=float("nan"),
            time_varying_job_fraction=float("nan"),
            active_slice_fraction=float("nan"),
        )
    return ScheduleStatistics(
        num_jobs_served=len(paths_used),
        mean_paths_used=float(np.mean(paths_used)),
        max_paths_used=int(max(paths_used)),
        multipath_job_fraction=float(np.mean(concurrent_multipath)),
        mean_rate_changes=float(np.mean(rate_changes)),
        time_varying_job_fraction=float(np.mean([c > 0 for c in rate_changes])),
        active_slice_fraction=float(np.mean(active_fraction)),
    )
