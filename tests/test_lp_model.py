"""Unit tests for the ProblemStructure (variable space + constraint blocks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Job, JobSet, Network, ProblemStructure, TimeGrid, ValidationError
from repro.lp.model import column_layout, job_capacity_fragment
from repro.network.paths import Path
from repro.network import topologies


class TestConstructionValidation:
    def test_empty_jobs_rejected(self, line3, grid4):
        with pytest.raises(ValidationError):
            ProblemStructure(line3, JobSet(), grid4)

    def test_grid_must_cover_jobs(self, line3):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=1.0, start=0.0, end=9.0)])
        with pytest.raises(ValidationError, match="extend the grid"):
            ProblemStructure(line3, jobs, TimeGrid.uniform(4))

    def test_job_without_path_rejected(self, grid4):
        net = Network()
        net.add_edge(0, 1, 1)
        net.add_node(2)
        jobs = JobSet([Job(id=0, source=0, dest=2, size=1.0, start=0.0, end=2.0)])
        with pytest.raises(ValidationError, match="no path"):
            ProblemStructure(net, jobs, grid4)

    def test_job_without_whole_slice_rejected(self, line3):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=1.0, start=0.3, end=0.9)])
        with pytest.raises(ValidationError, match="no whole time slice"):
            ProblemStructure(line3, jobs, TimeGrid.uniform(4))

    def test_k_paths_validation(self, line3, line3_jobs, grid4):
        with pytest.raises(ValidationError):
            ProblemStructure(line3, line3_jobs, grid4, k_paths=0)


class TestColumnLayout:
    def test_column_counts(self, line3_structure):
        s = line3_structure
        # Line has a single path per OD pair; job0 spans 4 slices, job1 spans 3.
        assert s.num_paths.tolist() == [1, 1]
        assert s.span.tolist() == [4, 3]
        assert s.num_cols == 7
        assert s.job_offset.tolist() == [0, 4, 7]

    def test_col_arrays_consistent(self, line3_structure):
        s = line3_structure
        assert s.col_job.tolist() == [0, 0, 0, 0, 1, 1, 1]
        assert s.col_slice.tolist() == [0, 1, 2, 3, 0, 1, 2]
        assert np.allclose(s.col_len, 1.0)

    def test_column_lookup_roundtrip(self, diamond, grid4):
        jobs = JobSet([Job(id=0, source=0, dest=3, size=2.0, start=1.0, end=4.0)])
        s = ProblemStructure(diamond, jobs, grid4, k_paths=2)
        assert s.num_paths[0] == 2
        for p in range(2):
            for j in range(1, 4):
                c = s.column(0, p, j)
                assert s.col_job[c] == 0
                assert s.col_path[c] == p
                assert s.col_slice[c] == j

    def test_column_out_of_window_rejected(self, line3_structure):
        with pytest.raises(ValidationError):
            line3_structure.column(1, 0, 3)  # job 1 ends at slice 2
        with pytest.raises(ValidationError):
            line3_structure.column(0, 1, 0)  # only one path
        with pytest.raises(ValidationError):
            line3_structure.column(5, 0, 0)

    def test_job_columns_slices(self, line3_structure):
        assert line3_structure.job_columns(0) == slice(0, 4)
        assert line3_structure.job_columns(1) == slice(4, 7)
        with pytest.raises(ValidationError):
            line3_structure.job_columns(2)

    def test_allowed_slices(self, line3_structure):
        assert line3_structure.allowed_slices(0) == range(0, 4)
        assert line3_structure.allowed_slices(1) == range(0, 3)

    def test_window_not_starting_at_zero(self, line3, grid4):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=1.0, start=2.0, end=4.0)])
        s = ProblemStructure(line3, jobs, grid4)
        assert s.allowed_slices(0) == range(2, 4)
        assert s.col_slice.tolist() == [2, 3]


#: Per-job (first slice, span, paths) triples; each path is its edge ids.
_jobs = st.lists(
    st.tuples(
        st.integers(0, 30),
        st.integers(1, 8),
        st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=5),
                 min_size=1, max_size=4),
    ),
    min_size=1, max_size=10,
)


class TestVectorizedLayoutMatchesPerJobLoop:
    """The whole-array builds equal the per-job loops they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(jobs=_jobs)
    def test_column_layout(self, jobs):
        first = np.array([f for f, _, _ in jobs], dtype=np.int64)
        span = np.array([s for _, s, _ in jobs], dtype=np.int64)
        num_paths = np.array([len(p) for _, _, p in jobs], dtype=np.int64)
        cols_per_job = num_paths * span
        offset = np.zeros(len(jobs) + 1, dtype=np.int64)
        np.cumsum(cols_per_job, out=offset[1:])
        expected = (
            np.repeat(np.arange(len(jobs)), cols_per_job),
            np.concatenate([
                np.tile(np.arange(first[i], first[i] + span[i]), num_paths[i])
                for i in range(len(jobs))
            ]),
            np.concatenate([
                np.repeat(np.arange(num_paths[i]), span[i])
                for i in range(len(jobs))
            ]),
        )
        got = column_layout(first, span, cols_per_job, offset)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(jobs=_jobs)
    def test_capacity_fragment(self, jobs):
        for _, span, edge_lists in jobs:
            paths = [Path(tuple(range(len(e) + 1)), tuple(e), float(len(e)))
                     for e in edge_lists]
            rel = np.arange(span, dtype=np.int64)
            expected = [np.concatenate(parts) for parts in zip(*[
                (np.repeat(np.asarray(e, dtype=np.int64), span),
                 np.tile(rel, len(e)),
                 np.tile(p * span + rel, len(e)))
                for p, e in enumerate(edge_lists)
            ])]
            got = job_capacity_fragment(paths, span)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


class TestCapacityBlock:
    def test_rows_cover_used_edge_slices_only(self, line3, grid4):
        jobs = JobSet([Job(id=0, source=0, dest=1, size=1.0, start=0.0, end=2.0)])
        s = ProblemStructure(line3, jobs, grid4)
        # Single 1-hop path over slices {0, 1}: exactly 2 capacity rows.
        assert s.capacity_matrix.shape == (2, 2)
        assert set(s.cap_row_slice.tolist()) == {0, 1}
        assert set(s.cap_row_edge.tolist()) == {line3.edge_id(0, 1)}

    def test_rhs_is_edge_capacity(self, line3_structure):
        caps = line3_structure.network.capacities()
        assert np.array_equal(
            line3_structure.cap_rhs, caps[line3_structure.cap_row_edge]
        )

    def test_multi_hop_path_loads_every_edge(self, line3, grid4):
        jobs = JobSet([Job(id=0, source=0, dest=2, size=1.0, start=0.0, end=1.0)])
        s = ProblemStructure(line3, jobs, grid4)
        x = np.array([1.0])
        loads = s.link_loads(x)
        assert loads[line3.edge_id(0, 1), 0] == 1.0
        assert loads[line3.edge_id(1, 2), 0] == 1.0
        assert loads.sum() == 2.0

    def test_shared_edge_sums_jobs(self, line3, grid4):
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=1.0, start=0.0, end=1.0),
                Job(id=1, source=0, dest=1, size=1.0, start=0.0, end=1.0),
            ]
        )
        s = ProblemStructure(line3, jobs, grid4)
        x = np.ones(s.num_cols)
        loads = s.link_loads(x)
        assert loads[line3.edge_id(0, 1), 0] == 2.0
        assert loads[line3.edge_id(1, 2), 0] == 1.0


class TestDemandBlock:
    def test_delivered(self, line3_structure):
        x = np.zeros(line3_structure.num_cols)
        x[0] = 2.0  # job 0, slice 0
        x[4] = 1.0  # job 1, slice 0
        assert line3_structure.delivered(x).tolist() == [2.0, 1.0]

    def test_delivered_respects_slice_length(self, line3, line3_jobs):
        grid = TimeGrid.uniform(2, slice_length=2.0)
        s = ProblemStructure(line3, line3_jobs, grid)
        x = np.zeros(s.num_cols)
        x[0] = 1.0
        assert s.delivered(x)[0] == 2.0  # one wavelength for a 2-long slice

    def test_throughputs_and_weighted(self, line3_structure):
        s = line3_structure
        x = np.zeros(s.num_cols)
        x[:4] = 1.0  # job 0 gets 4 volume over its 4 slices => Z_0 = 1
        z = s.throughputs(x)
        assert z[0] == pytest.approx(1.0)
        assert z[1] == 0.0
        # objective (7): sum Z_i D_i / sum D_i = 4 / 7.
        assert s.weighted_throughput(x) == pytest.approx(4.0 / 7.0)

    def test_demand_normalization_by_rate(self, line3_jobs, grid4):
        net = topologies.line(3, capacity=2, wavelength_rate=4.0)
        s = ProblemStructure(net, line3_jobs, grid4)
        assert s.demands.tolist() == [1.0, 0.75]


class TestDerivedQuantities:
    def test_residual_capacity(self, line3_structure):
        s = line3_structure
        x = np.zeros(s.num_cols)
        x[0] = 1.0
        res = s.residual_capacity(x)
        assert res[s.network.edge_id(0, 1), 0] == 1.0
        assert res[s.network.edge_id(0, 1), 1] == 2.0

    def test_capacity_violation(self, line3_structure):
        s = line3_structure
        x = np.zeros(s.num_cols)
        assert s.capacity_violation(x) == 0.0
        x[0] = 5.0  # capacity is 2
        assert s.capacity_violation(x) == pytest.approx(3.0)

    def test_bad_x_shape_rejected(self, line3_structure):
        with pytest.raises(ValidationError):
            line3_structure.delivered(np.zeros(3))

    def test_repr(self, line3_structure):
        assert "cols=7" in repr(line3_structure)

    def test_path_sets_reuse(self, line3, line3_jobs, grid4):
        from repro.network.paths import build_path_sets

        sets = build_path_sets(line3, line3_jobs.od_pairs(), 2)
        s = ProblemStructure(line3, line3_jobs, grid4, path_sets=sets)
        assert s.paths[0][0].nodes == (0, 1, 2)

    def test_k_paths_truncates_supplied_sets(self, diamond, grid4):
        from repro.network.paths import build_path_sets

        jobs = JobSet([Job(id=0, source=0, dest=3, size=1.0, start=0.0, end=2.0)])
        sets = build_path_sets(diamond, jobs.od_pairs(), 2)
        s = ProblemStructure(diamond, jobs, grid4, k_paths=1, path_sets=sets)
        assert s.num_paths[0] == 1
