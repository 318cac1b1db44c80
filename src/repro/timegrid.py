"""Time discretization: slices, slice lengths and the :math:`I(\\cdot)` map.

The paper divides time into *slices* (Section II-A).  A :class:`TimeGrid`
is an increasing sequence of boundaries ``t_0 < t_1 < ... < t_L`` defining
``L`` slices, where slice ``j`` covers the half-open interval
``[t_j, t_{j+1})`` and has length ``LEN(j) = t_{j+1} - t_j``.

Start/end constraint semantics
------------------------------

Constraint (4) of the paper forces ``x_i(p, j) = 0`` for ``j <= I(S_i)``
or ``j > I(E_i)``.  The service promise behind it is: *begin after the
requested start time, finish before the requested end time*.  We therefore
adopt the conservative "fully contained" interpretation: a slice ``j`` is
allowed for a job with window ``[S, E]`` iff ``t_j >= S`` and
``t_{j+1} <= E``.  When ``S`` and ``E`` fall exactly on slice boundaries
(the common case in all of the paper's experiments, where windows are
given in whole slices) this is identical to the paper's formulation; when
they fall strictly inside a slice it rounds the window inward, which keeps
the guarantee sound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import ValidationError

__all__ = ["TimeGrid"]


class TimeGrid:
    """An increasing sequence of slice boundaries.

    Parameters
    ----------
    boundaries:
        Strictly increasing sequence ``t_0 < t_1 < ... < t_L`` of slice
        boundaries.  ``L`` (``len(boundaries) - 1``) slices are defined.

    Examples
    --------
    >>> grid = TimeGrid.uniform(num_slices=4, slice_length=2.0)
    >>> grid.num_slices
    4
    >>> grid.length(1)
    2.0
    >>> grid.window_slices(2.0, 8.0)
    range(1, 4)
    """

    __slots__ = ("_boundaries", "_lengths", "_bounds")

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = np.asarray(boundaries, dtype=float)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValidationError(
                "TimeGrid needs at least two boundaries (one slice), "
                f"got {bounds.size}"
            )
        if not np.all(np.isfinite(bounds)):
            raise ValidationError("TimeGrid boundaries must be finite")
        diffs = np.diff(bounds)
        if np.any(diffs <= 0):
            raise ValidationError("TimeGrid boundaries must be strictly increasing")
        self._boundaries = bounds
        self._boundaries.setflags(write=False)
        self._lengths = diffs
        self._lengths.setflags(write=False)
        # The same boundaries as Python floats, for the scalar searches of
        # window_slices (a bisect there costs a fraction of a NumPy call).
        self._bounds = bounds.tolist()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls, num_slices: int, slice_length: float = 1.0, start: float = 0.0
    ) -> "TimeGrid":
        """Build a grid of ``num_slices`` equal slices of ``slice_length``."""
        if num_slices < 1:
            raise ValidationError(f"num_slices must be >= 1, got {num_slices}")
        if slice_length <= 0:
            raise ValidationError(f"slice_length must be > 0, got {slice_length}")
        bounds = start + slice_length * np.arange(num_slices + 1, dtype=float)
        return cls(bounds)

    @classmethod
    def covering(
        cls, horizon: float, slice_length: float = 1.0, start: float = 0.0
    ) -> "TimeGrid":
        """Uniform grid from ``start`` whose last boundary is ``>= horizon``."""
        if horizon <= start:
            raise ValidationError(
                f"horizon ({horizon}) must exceed start ({start})"
            )
        num = int(np.ceil((horizon - start) / slice_length - 1e-12))
        return cls.uniform(max(num, 1), slice_length, start)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def boundaries(self) -> np.ndarray:
        """Read-only array of the ``L + 1`` slice boundaries."""
        return self._boundaries

    @property
    def lengths(self) -> np.ndarray:
        """Read-only array of slice lengths, ``LEN(j)`` for each slice."""
        return self._lengths

    @property
    def num_slices(self) -> int:
        """Number of slices ``L``."""
        return len(self._lengths)

    @property
    def start(self) -> float:
        """First boundary ``t_0``."""
        return float(self._boundaries[0])

    @property
    def end(self) -> float:
        """Last boundary ``t_L``."""
        return float(self._boundaries[-1])

    @property
    def horizon(self) -> float:
        """Total covered time, ``t_L - t_0``."""
        return self.end - self.start

    def length(self, j: int) -> float:
        """``LEN(j)``: length of slice ``j``."""
        return float(self._lengths[self._check_slice(j)])

    def slice_start(self, j: int) -> float:
        """Left boundary ``t_j`` of slice ``j``."""
        return float(self._boundaries[self._check_slice(j)])

    def slice_end(self, j: int) -> float:
        """Right boundary ``t_{j+1}`` of slice ``j``."""
        return float(self._boundaries[self._check_slice(j) + 1])

    def _check_slice(self, j: int) -> int:
        j = int(j)
        if not 0 <= j < self.num_slices:
            raise ValidationError(
                f"slice index {j} out of range [0, {self.num_slices})"
            )
        return j

    def __len__(self) -> int:
        return self.num_slices

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_slices))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return np.array_equal(self._boundaries, other._boundaries)

    def __hash__(self) -> int:
        return hash(self._boundaries.tobytes())

    def __repr__(self) -> str:
        return (
            f"TimeGrid(num_slices={self.num_slices}, "
            f"start={self.start:g}, end={self.end:g})"
        )

    # ------------------------------------------------------------------
    # The I(.) map and job windows
    # ------------------------------------------------------------------
    def slice_of(self, t: float) -> int:
        """``I(t)``: index of the slice containing time ``t``.

        Slice ``j`` covers ``[t_j, t_{j+1})``; the final boundary ``t_L``
        maps to the last slice.  Raises :class:`ValidationError` when ``t``
        lies outside the grid.
        """
        if t < self.start or t > self.end:
            raise ValidationError(
                f"time {t} outside grid [{self.start}, {self.end}]"
            )
        if t >= self.end:
            return self.num_slices - 1
        j = int(np.searchsorted(self._boundaries, t, side="right")) - 1
        return max(j, 0)

    def window_slices(self, start: float, end: float) -> range:
        """Slices fully contained in the window ``[start, end]``.

        Returns the (possibly empty) contiguous ``range`` of slice indices
        ``j`` with ``t_j >= start`` and ``t_{j+1} <= end``.  Times outside
        the grid are clipped to the grid, so a window reaching past the
        last boundary simply ends at the last slice.
        """
        if end < start:
            raise ValidationError(f"window end ({end}) precedes start ({start})")
        if start != start or end != end:
            raise ValidationError(f"window [{start}, {end}] is not a number")
        bounds = self._bounds
        lo = min(max(float(start), bounds[0]), bounds[-1])
        hi = min(max(float(end), bounds[0]), bounds[-1])
        # First boundary >= lo starts the first allowed slice.
        first = bisect_left(bounds, lo - 1e-12)
        # Last boundary <= hi closes the last allowed slice.
        last_boundary = bisect_right(bounds, hi + 1e-12) - 1
        last = last_boundary - 1  # slice ends at boundary index last+1
        if last < first:
            return range(first, first)  # empty
        return range(first, last + 1)

    def window_mask(self, start: float, end: float) -> np.ndarray:
        """Boolean mask over slices for :meth:`window_slices`."""
        mask = np.zeros(self.num_slices, dtype=bool)
        window = self.window_slices(start, end)
        if len(window) > 0:
            mask[window.start : window.stop] = True
        return mask

    # ------------------------------------------------------------------
    # Derived grids
    # ------------------------------------------------------------------
    def extended(self, horizon: float) -> "TimeGrid":
        """Grid extended with uniform slices until it covers ``horizon``.

        The appended slices copy the length of the last existing slice.
        Used by the RET algorithm when end times are stretched by
        ``(1 + b)`` beyond the original grid.  Returns ``self`` when the
        grid already covers ``horizon``.
        """
        if horizon <= self.end:
            return self
        tail_len = float(self._lengths[-1])
        extra = int(np.ceil((horizon - self.end) / tail_len - 1e-12))
        new_tail = self.end + tail_len * np.arange(1, extra + 1, dtype=float)
        return TimeGrid(np.concatenate([self._boundaries, new_tail]))

    def prefix(self, num_slices: int) -> "TimeGrid":
        """Grid containing only the first ``num_slices`` slices."""
        if not 1 <= num_slices <= self.num_slices:
            raise ValidationError(
                f"prefix length {num_slices} out of range [1, {self.num_slices}]"
            )
        return TimeGrid(self._boundaries[: num_slices + 1])
