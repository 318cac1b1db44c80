"""Reconfiguration churn: how much does a re-optimized schedule move?

The paper's framework re-optimizes *all* jobs every period, which buys
efficiency but re-writes switch state; operators also care how much of
the previous configuration survives (the rerouting-cost concern of the
related work it cites, e.g. Burchard et al. on rerouting strategies).

:func:`reconfiguration_churn` compares two schedules on their common
footing — same job, same path (by node sequence), same absolute time
slice — and reports how many wavelength-units moved.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.scheduler import ScheduleResult
from ..errors import ValidationError

__all__ = ["ChurnReport", "reconfiguration_churn"]


@dataclass(frozen=True)
class ChurnReport:
    """Grant-level difference between two schedules.

    All quantities are in wavelength-slice units over the *overlapping*
    absolute time range of the two schedules.

    Attributes
    ----------
    kept:
        Wavelength-units present in both schedules on the same
        (job, path, slice).
    removed:
        Units the old schedule had that the new one dropped.
    added:
        Units the new schedule has that the old one lacked.
    """

    kept: float
    removed: float
    added: float

    @property
    def old_total(self) -> float:
        return self.kept + self.removed

    @property
    def new_total(self) -> float:
        return self.kept + self.added

    @property
    def churn_fraction(self) -> float:
        """Share of the old configuration that was torn down (0 = stable)."""
        if self.old_total == 0:
            return float("nan")
        return self.removed / self.old_total

    @property
    def retention(self) -> float:
        """Share of the old configuration that survived."""
        if self.old_total == 0:
            return float("nan")
        return self.kept / self.old_total


def _grant_map(result: ScheduleResult, which: str) -> dict[tuple, int]:
    grants: dict[tuple, int] = {}
    for grant in result.grants(which):
        # Key by absolute slice *time*, so schedules built over different
        # grids (e.g. successive controller epochs) still align.
        key = (grant.job_id, grant.path, grant.interval[0])
        grants[key] = grants.get(key, 0) + grant.wavelengths
    return grants


def reconfiguration_churn(
    old: ScheduleResult,
    new: ScheduleResult,
    which: str = "lpdar",
) -> ChurnReport:
    """Compare two schedules' wavelength grants on their overlapping time.

    Only grants whose slice start lies in both schedules' time ranges
    are compared; grants outside the overlap are ignored (they are not
    reconfigurations, just horizon differences).
    """
    overlap_start = max(old.structure.grid.start, new.structure.grid.start)
    overlap_end = min(old.structure.grid.end, new.structure.grid.end)
    if overlap_end <= overlap_start:
        raise ValidationError(
            "schedules do not overlap in time; nothing to compare"
        )

    def in_overlap(key: tuple) -> bool:
        return overlap_start - 1e-9 <= key[2] < overlap_end - 1e-9

    old_grants = {k: v for k, v in _grant_map(old, which).items() if in_overlap(k)}
    new_grants = {k: v for k, v in _grant_map(new, which).items() if in_overlap(k)}

    kept = removed = added = 0.0
    for key, count in old_grants.items():
        other = new_grants.get(key, 0)
        kept += min(count, other)
        removed += max(count - other, 0)
    for key, count in new_grants.items():
        added += max(count - old_grants.get(key, 0), 0)
    return ChurnReport(kept=kept, removed=removed, added=added)
