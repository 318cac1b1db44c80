"""Unit tests for repro.timegrid.TimeGrid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TimeGrid, ValidationError


class TestConstruction:
    def test_uniform_boundaries(self):
        grid = TimeGrid.uniform(num_slices=3, slice_length=2.0, start=1.0)
        assert np.allclose(grid.boundaries, [1.0, 3.0, 5.0, 7.0])
        assert grid.num_slices == 3
        assert grid.start == 1.0
        assert grid.end == 7.0
        assert grid.horizon == 6.0

    def test_explicit_nonuniform(self):
        grid = TimeGrid([0.0, 1.0, 3.0, 3.5])
        assert grid.num_slices == 3
        assert grid.length(0) == 1.0
        assert grid.length(1) == 2.0
        assert grid.length(2) == 0.5

    def test_covering_reaches_horizon(self):
        grid = TimeGrid.covering(horizon=7.3, slice_length=2.0)
        assert grid.end >= 7.3
        assert grid.num_slices == 4

    def test_covering_exact_multiple_has_no_extra_slice(self):
        grid = TimeGrid.covering(horizon=6.0, slice_length=2.0)
        assert grid.num_slices == 3
        assert grid.end == 6.0

    @pytest.mark.parametrize(
        "boundaries",
        [[0.0], [], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.inf]],
    )
    def test_invalid_boundaries_rejected(self, boundaries):
        with pytest.raises(ValidationError):
            TimeGrid(boundaries)

    def test_zero_slices_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid.uniform(0)

    def test_negative_slice_length_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid.uniform(3, slice_length=-1.0)

    def test_covering_empty_horizon_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid.covering(horizon=0.0, slice_length=1.0, start=0.0)

    def test_boundaries_are_immutable(self):
        grid = TimeGrid.uniform(3)
        with pytest.raises(ValueError):
            grid.boundaries[0] = 99.0


class TestSliceGeometry:
    def test_slice_start_end(self):
        grid = TimeGrid.uniform(4, slice_length=0.5)
        assert grid.slice_start(2) == 1.0
        assert grid.slice_end(2) == 1.5

    def test_length_out_of_range(self):
        grid = TimeGrid.uniform(2)
        with pytest.raises(ValidationError):
            grid.length(2)
        with pytest.raises(ValidationError):
            grid.length(-1)

    def test_iteration_and_len(self):
        grid = TimeGrid.uniform(5)
        assert len(grid) == 5
        assert list(grid) == [0, 1, 2, 3, 4]

    def test_equality_and_hash(self):
        a = TimeGrid.uniform(3)
        b = TimeGrid([0.0, 1.0, 2.0, 3.0])
        c = TimeGrid.uniform(3, slice_length=2.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a grid"


class TestSliceOf:
    def test_interior_points(self):
        grid = TimeGrid.uniform(4)
        assert grid.slice_of(0.0) == 0
        assert grid.slice_of(0.5) == 0
        assert grid.slice_of(1.0) == 1
        assert grid.slice_of(3.999) == 3

    def test_final_boundary_maps_to_last_slice(self):
        grid = TimeGrid.uniform(4)
        assert grid.slice_of(4.0) == 3

    def test_outside_raises(self):
        grid = TimeGrid.uniform(4)
        with pytest.raises(ValidationError):
            grid.slice_of(-0.1)
        with pytest.raises(ValidationError):
            grid.slice_of(4.1)


class TestWindowSlices:
    def test_aligned_window(self):
        grid = TimeGrid.uniform(6)
        assert grid.window_slices(1.0, 4.0) == range(1, 4)

    def test_full_grid_window(self):
        grid = TimeGrid.uniform(4)
        assert grid.window_slices(0.0, 4.0) == range(0, 4)

    def test_unaligned_window_rounds_inward(self):
        grid = TimeGrid.uniform(6)
        # [0.5, 3.5] fully contains only slices 1 and 2.
        assert grid.window_slices(0.5, 3.5) == range(1, 3)

    def test_window_smaller_than_slice_is_empty(self):
        grid = TimeGrid.uniform(4)
        assert len(grid.window_slices(0.25, 0.75)) == 0

    def test_window_clipped_to_grid(self):
        grid = TimeGrid.uniform(4)
        assert grid.window_slices(-5.0, 100.0) == range(0, 4)

    def test_backwards_window_raises(self):
        grid = TimeGrid.uniform(4)
        with pytest.raises(ValidationError):
            grid.window_slices(2.0, 1.0)

    def test_window_mask_matches_range(self):
        grid = TimeGrid.uniform(6)
        mask = grid.window_mask(1.0, 4.0)
        assert mask.tolist() == [False, True, True, True, False, False]

    def test_degenerate_point_window_is_empty(self):
        grid = TimeGrid.uniform(4)
        assert len(grid.window_slices(2.0, 2.0)) == 0

    def test_float_noise_on_boundaries(self):
        # Boundaries computed via repeated addition must still align.
        grid = TimeGrid.uniform(10, slice_length=0.1)
        window = grid.window_slices(0.3, 0.7)
        assert window == range(3, 7)

    @pytest.mark.parametrize("start, end", [(float("nan"), 2.0),
                                            (1.0, float("nan"))])
    def test_nan_window_raises(self, start, end):
        with pytest.raises(ValidationError):
            TimeGrid.uniform(4).window_slices(start, end)


def _numpy_window_slices(grid, start, end):
    """The NumPy ``window_slices`` the bisect version replaced (oracle)."""
    bounds = grid.boundaries
    lo = float(np.clip(start, grid.start, grid.end))
    hi = float(np.clip(end, grid.start, grid.end))
    first = int(np.searchsorted(bounds, lo - 1e-12, side="left"))
    last = int(np.searchsorted(bounds, hi + 1e-12, side="right") - 1) - 1
    return range(first, first) if last < first else range(first, last + 1)


class TestWindowSlicesMatchNumpy:
    @settings(max_examples=300, deadline=None)
    @given(
        lengths=st.lists(
            st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5, 2.0]),
            min_size=1, max_size=12,
        ),
        origin=st.sampled_from([0.0, 0.3, 5.0, -2.0]),
        picks=st.lists(st.floats(-0.2, 1.2), min_size=2, max_size=2),
        noise=st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12,
                               -1e-12, 5e-12, -5e-12]),
        on_boundary=st.booleans(),
    )
    def test_same_range(self, lengths, origin, picks, noise, on_boundary):
        grid = TimeGrid(origin + np.concatenate(([0.0], np.cumsum(lengths))))
        if on_boundary:  # boundaries (plus float noise) are the hard case
            count = grid.num_slices + 1
            picks = [grid.boundaries[int(p * count) % count] for p in picks]
        else:
            picks = [grid.start + p * grid.horizon for p in picks]
        start, end = sorted(float(p) + noise for p in picks)
        assert grid.window_slices(start, end) == _numpy_window_slices(
            grid, start, end)

    @pytest.mark.parametrize("grid", [
        TimeGrid.uniform(10, slice_length=0.1),
        TimeGrid.uniform(6, slice_length=1.0, start=3.0),
        TimeGrid([0.0, 0.25, 1.0, 1.5, 4.0]),
    ])
    def test_same_range_at_every_boundary_tie(self, grid):
        """Windows a tolerance away from each boundary, where the search
        side decides whether a slice is in."""
        times = sorted({
            float(t)
            for b in grid.boundaries
            for t in (b, b - 1e-12, b + 1e-12,
                      np.nextafter(b - 1e-12, -np.inf),
                      np.nextafter(b + 1e-12, np.inf))
        })
        for i, start in enumerate(times):
            for end in times[i:]:
                assert grid.window_slices(start, end) == (
                    _numpy_window_slices(grid, start, end))


class TestDerivedGrids:
    def test_extended_covers_horizon(self):
        grid = TimeGrid.uniform(3)
        bigger = grid.extended(7.5)
        assert bigger.end >= 7.5
        assert bigger.num_slices == 8
        assert np.allclose(bigger.boundaries[:4], grid.boundaries)

    def test_extended_noop_when_covered(self):
        grid = TimeGrid.uniform(5)
        assert grid.extended(4.0) is grid

    def test_extended_copies_last_slice_length(self):
        grid = TimeGrid([0.0, 1.0, 3.0])
        bigger = grid.extended(8.0)
        assert np.allclose(np.diff(bigger.boundaries)[1:], 2.0)

    def test_prefix(self):
        grid = TimeGrid.uniform(5)
        assert grid.prefix(2) == TimeGrid.uniform(2)

    def test_prefix_bounds(self):
        grid = TimeGrid.uniform(3)
        with pytest.raises(ValidationError):
            grid.prefix(0)
        with pytest.raises(ValidationError):
            grid.prefix(4)

    def test_repr_mentions_size(self):
        assert "num_slices=3" in repr(TimeGrid.uniform(3))
