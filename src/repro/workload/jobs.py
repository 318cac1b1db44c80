"""Job requests: the 6-tuple ``(A_i, s_i, d_i, D_i, S_i, E_i)``.

A job request (paper Section II-A) arrives at time ``A_i`` and asks the
network to move ``D_i`` units of data from ``s_i`` to ``d_i`` inside the
window ``[S_i, E_i]``, with ``A_i <= S_i <= E_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Hashable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import ValidationError

__all__ = ["Job", "JobSet"]

Node = Hashable


@dataclass(frozen=True)
class Job:
    """A bulk-transfer request.

    Attributes
    ----------
    id:
        Caller-chosen identifier, unique within a :class:`JobSet`.
    source, dest:
        Origin and destination nodes (must differ).
    size:
        ``D_i``: data volume to move, in the same volume units the
        network's ``wavelength_rate`` is expressed in (e.g. GB when the
        rate is GB/hour).  Must be positive.
    start, end:
        ``S_i`` and ``E_i``: requested transfer window.
    arrival:
        ``A_i``: request submission time, ``A_i <= S_i`` (default: equal
        to ``start``).
    weight:
        Optional scheduling weight for the stage-2 objective.  ``None``
        (default) selects the paper's size weighting, under which the
        objective reduces to total delivered volume.
    """

    id: int | str
    source: Node
    dest: Node
    size: float
    start: float
    end: float
    arrival: float | None = None
    weight: float | None = None

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise ValidationError(
                f"job {self.id!r}: source and destination must differ"
            )
        if not (self.size > 0 and np.isfinite(self.size)):
            raise ValidationError(
                f"job {self.id!r}: size must be positive, got {self.size}"
            )
        if not (np.isfinite(self.start) and np.isfinite(self.end)):
            raise ValidationError(f"job {self.id!r}: non-finite window")
        if self.end <= self.start:
            raise ValidationError(
                f"job {self.id!r}: window [{self.start}, {self.end}] is empty"
            )
        if self.arrival is None:
            object.__setattr__(self, "arrival", float(self.start))
        elif self.arrival > self.start:
            raise ValidationError(
                f"job {self.id!r}: arrival {self.arrival} after start {self.start}"
            )
        if self.weight is not None and not (
            self.weight > 0 and np.isfinite(self.weight)
        ):
            raise ValidationError(
                f"job {self.id!r}: weight must be positive, got {self.weight}"
            )

    @property
    def window(self) -> tuple[float, float]:
        """The requested ``[S_i, E_i]`` interval."""
        return (self.start, self.end)

    @property
    def duration(self) -> float:
        """Window length ``E_i - S_i``."""
        return self.end - self.start

    @property
    def min_rate(self) -> float:
        """Average rate needed to finish exactly within the window."""
        return self.size / self.duration

    def scaled(self, factor: float) -> "Job":
        """Copy with size multiplied by ``factor`` (demand re-negotiation)."""
        if factor <= 0:
            raise ValidationError(f"scale factor must be positive, got {factor}")
        return replace(self, size=self.size * factor)

    def with_extended_end(self, b: float) -> "Job":
        """Copy with the end time stretched to ``(1 + b) * end`` (RET)."""
        if b < 0:
            raise ValidationError(f"extension b must be >= 0, got {b}")
        new_end = (1.0 + b) * self.end
        if new_end <= self.start:
            raise ValidationError(
                f"job {self.id!r}: extended end {new_end} not after start"
            )
        return replace(self, end=new_end)

    def with_extended_interval(self, b: float) -> "Job":
        """Copy with the *window length* stretched by ``(1 + b)``.

        The alternative deadline relaxation the paper's Section II-C
        remark mentions: the start time holds and the end becomes
        ``start + (1 + b) * (end - start)``.  Unlike
        :meth:`with_extended_end`, the granted extra time is
        proportional to the job's own window, not to its absolute end
        time — late-starting jobs are not favoured.
        """
        if b < 0:
            raise ValidationError(f"extension b must be >= 0, got {b}")
        return replace(self, end=self.start + (1.0 + b) * self.duration)

    def with_remaining(self, remaining: float) -> "Job":
        """Copy with ``size`` replaced by a residual demand (simulator)."""
        if not (remaining > 0 and np.isfinite(remaining)):
            raise ValidationError(
                f"job {self.id!r}: remaining must be positive, got {remaining}"
            )
        return replace(self, size=remaining)


class JobSet(Sequence[Job]):
    """An ordered collection of jobs with unique ids.

    Job *positions* in the set are the dense indices the optimization
    layer uses; ids are for callers.
    """

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._jobs: list[Job] = []
        self._by_id: dict[int | str, int] = {}
        for job in jobs:
            self.add(job)

    def add(self, job: Job) -> int:
        """Append ``job``; returns its dense index."""
        if not isinstance(job, Job):
            raise ValidationError(f"expected Job, got {type(job).__name__}")
        if job.id in self._by_id:
            raise ValidationError(f"duplicate job id {job.id!r}")
        idx = len(self._jobs)
        self._jobs.append(job)
        self._by_id[job.id] = idx
        return idx

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return JobSet(self._jobs[index])
        return self._jobs[index]

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Job):
            return item.id in self._by_id
        return item in self._by_id

    def by_id(self, job_id: int | str) -> Job:
        """Job with identifier ``job_id``."""
        try:
            return self._jobs[self._by_id[job_id]]
        except KeyError:
            raise ValidationError(f"unknown job id {job_id!r}") from None

    def index_of(self, job_id: int | str) -> int:
        """Dense index of the job with identifier ``job_id``."""
        try:
            return self._by_id[job_id]
        except KeyError:
            raise ValidationError(f"unknown job id {job_id!r}") from None

    def sizes(self) -> np.ndarray:
        """Array of ``D_i`` by dense index."""
        return np.array([j.size for j in self._jobs], dtype=float)

    def total_size(self) -> float:
        """``sum_i D_i``."""
        return float(self.sizes().sum()) if self._jobs else 0.0

    def od_pairs(self) -> list[tuple[Node, Node]]:
        """``(source, dest)`` per job, dense order."""
        return [(j.source, j.dest) for j in self._jobs]

    def max_end(self) -> float:
        """Largest requested end time (defines the scheduling horizon)."""
        if not self._jobs:
            raise ValidationError("empty job set has no end times")
        return max(j.end for j in self._jobs)

    def scaled(self, factor: float) -> "JobSet":
        """New set with every job's size multiplied by ``factor``."""
        return JobSet(j.scaled(factor) for j in self._jobs)

    def with_extended_ends(self, b: float) -> "JobSet":
        """New set with every end time stretched by ``(1 + b)`` (RET)."""
        return JobSet(j.with_extended_end(b) for j in self._jobs)

    def with_extended_intervals(self, b: float) -> "JobSet":
        """New set with every window *length* stretched by ``(1 + b)``."""
        return JobSet(j.with_extended_interval(b) for j in self._jobs)

    def sorted_by(self, key, reverse: bool = False) -> "JobSet":
        """New set sorted by ``key(job)`` (admission-control sequencing)."""
        return JobSet(sorted(self._jobs, key=key, reverse=reverse))

    def __repr__(self) -> str:
        return f"JobSet(num_jobs={len(self)})"
