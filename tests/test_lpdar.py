"""Unit tests for the LPDAR heuristic (discretize + Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Job,
    JobSet,
    ProblemStructure,
    ValidationError,
    discretize,
    greedy_adjust,
    lpdar,
    solve_stage1,
    solve_stage2_lp,
)


class TestDiscretize:
    def test_floors_fractions(self):
        assert discretize(np.array([0.0, 0.4, 1.9, 2.5])).tolist() == [0, 0, 1, 2]

    def test_near_integer_rounds_up(self):
        x = np.array([2.9999999995, 1.0000000001])
        assert discretize(x).tolist() == [3.0, 1.0]

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            discretize(np.array([-0.5]))

    def test_tiny_negative_noise_clamped(self):
        assert discretize(np.array([-1e-12])).tolist() == [0.0]

    def test_never_exceeds_input(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=100)
        assert np.all(discretize(x) <= x + 1e-6)


class TestGreedyAdjust:
    def test_recovers_truncated_bandwidth(self, diamond):
        """LPD of an all-0.5 solution is 0; Algorithm 1 refills both paths."""
        from repro import TimeGrid

        jobs = JobSet([Job(id=0, source=0, dest=3, size=2.0, start=0.0, end=1.0)])
        s = ProblemStructure(diamond, jobs, TimeGrid.uniform(1), k_paths=2)
        x_frac = np.array([0.5, 0.5])
        x_lpd = discretize(x_frac)
        assert x_lpd.tolist() == [0.0, 0.0]
        x_adj = greedy_adjust(s, x_lpd)
        assert x_adj.tolist() == [1.0, 1.0]

    def test_never_decreases(self, line3_structure, rng):
        x = np.zeros(line3_structure.num_cols)
        x[0] = 1.0
        adjusted = greedy_adjust(line3_structure, x)
        assert np.all(adjusted >= x)

    def test_capacity_never_violated(self, line3_structure):
        x = np.zeros(line3_structure.num_cols)
        adjusted = greedy_adjust(line3_structure, x)
        assert line3_structure.capacity_violation(adjusted) == 0.0
        # Greedy should saturate the line fully (each job has its own direction).
        loads = line3_structure.link_loads(adjusted)
        assert loads[line3_structure.network.edge_id(0, 1), :].tolist() == [
            2.0,
            2.0,
            2.0,
            2.0,
        ]

    def test_result_is_integral(self, line3_structure):
        x = np.zeros(line3_structure.num_cols)
        adjusted = greedy_adjust(line3_structure, x)
        assert np.array_equal(adjusted, np.rint(adjusted))

    def test_rejects_fractional_input(self, line3_structure):
        x = np.full(line3_structure.num_cols, 0.5)
        with pytest.raises(ValidationError, match="integer"):
            greedy_adjust(line3_structure, x)

    def test_rejects_capacity_violating_input(self, line3_structure):
        x = np.zeros(line3_structure.num_cols)
        x[0] = 99.0
        with pytest.raises(ValidationError, match="violates capacity"):
            greedy_adjust(line3_structure, x)

    def test_rejects_wrong_shape(self, line3_structure):
        with pytest.raises(ValidationError):
            greedy_adjust(line3_structure, np.zeros(2))

    def test_random_order_needs_rng(self, line3_structure):
        x = np.zeros(line3_structure.num_cols)
        with pytest.raises(ValidationError):
            greedy_adjust(line3_structure, x, order="random")

    def test_unknown_order_rejected(self, line3_structure):
        with pytest.raises(ValidationError):
            greedy_adjust(line3_structure, np.zeros(line3_structure.num_cols), order="bogus")

    def test_random_order_still_feasible(self, line3_structure, rng):
        x = np.zeros(line3_structure.num_cols)
        adjusted = greedy_adjust(line3_structure, x, order="random", rng=rng)
        assert line3_structure.capacity_violation(adjusted) == 0.0

    def test_window_respected(self, line3, grid4):
        """Greedy must not grant slices outside a job's window."""
        jobs = JobSet([Job(id=0, source=0, dest=2, size=4.0, start=1.0, end=3.0)])
        s = ProblemStructure(line3, jobs, grid4)
        adjusted = greedy_adjust(s, np.zeros(s.num_cols))
        # Columns exist only for slices 1, 2 — all may be filled to cap 2.
        assert s.col_slice.tolist() == [1, 2]
        assert adjusted.tolist() == [2.0, 2.0]


class TestDeficitFirstAndCapping:
    @pytest.fixture
    def shared_link(self, line3):
        """Two jobs on the same 1-slice window; deficits differ."""
        from repro import TimeGrid

        jobs = JobSet(
            [
                Job(id="sated", source=0, dest=2, size=1.0, start=0.0, end=1.0),
                Job(id="needy", source=0, dest=2, size=2.0, start=0.0, end=1.0),
            ]
        )
        return ProblemStructure(line3, jobs, TimeGrid.uniform(1))

    def test_paper_order_serves_first_job_first(self, shared_link):
        x = greedy_adjust(shared_link, np.zeros(2), order="paper")
        assert x.tolist() == [2.0, 0.0]

    def test_deficit_first_serves_needy_job(self, shared_link):
        x = greedy_adjust(shared_link, np.zeros(2), order="deficit_first")
        assert x.tolist() == [0.0, 2.0]

    def test_cap_at_target_leaves_surplus(self, shared_link):
        x = greedy_adjust(
            shared_link, np.zeros(2), order="paper", cap_at_target=True
        )
        # Job "sated" needs only 1 wavelength-slice; job "needy" gets the rest.
        assert x.tolist() == [1.0, 1.0]

    def test_cap_with_explicit_targets(self, shared_link):
        x = greedy_adjust(
            shared_link,
            np.zeros(2),
            order="paper",
            targets=np.array([0.0, 2.0]),
            cap_at_target=True,
        )
        assert x.tolist() == [0.0, 2.0]

    def test_targets_shape_validated(self, shared_link):
        with pytest.raises(ValidationError):
            greedy_adjust(shared_link, np.zeros(2), targets=np.array([1.0]))


class TestLpdarPipeline:
    def test_objective_ordering_lpd_lpdar_lp(self, line3, grid4):
        """Weighted throughput: LPD <= LPDAR <= LP on a contended instance."""
        jobs = JobSet(
            [
                Job(id=0, source=0, dest=2, size=5.0, start=0.0, end=4.0),
                Job(id=1, source=0, dest=2, size=3.0, start=0.0, end=3.0),
            ]
        )
        s = ProblemStructure(line3, jobs, grid4)
        zstar = solve_stage1(s).zstar
        stage2 = solve_stage2_lp(s, zstar, alpha=0.1)
        result = lpdar(s, stage2.x)
        wt = s.weighted_throughput
        assert wt(result.x_lpd) <= wt(result.x_lpdar) + 1e-9
        assert wt(result.x_lpdar) <= wt(result.x_lp) + 1e-9

    def test_lpdar_output_feasible_and_integral(self, line3_structure):
        zstar = solve_stage1(line3_structure).zstar
        stage2 = solve_stage2_lp(line3_structure, zstar, alpha=0.1)
        result = lpdar(line3_structure, stage2.x)
        assert line3_structure.capacity_violation(result.x_lpdar) == 0.0
        assert np.array_equal(result.x_lpdar, np.rint(result.x_lpdar))
        assert np.all(result.x_lpdar >= result.x_lpd)

    def test_lp_field_preserves_input(self, line3_structure):
        x = np.zeros(line3_structure.num_cols)
        x[0] = 1.3
        result = lpdar(line3_structure, x)
        assert result.x_lp[0] == pytest.approx(1.3)


# ----------------------------------------------------------------------
# The Python-int walk equals the NumPy walk it replaced
# ----------------------------------------------------------------------
def _numpy_greedy_adjust(structure, x_int, order, targets, cap_at_target,
                         rng):
    """Algorithm 1 as a NumPy walk: the oracle for ``greedy_adjust``.

    A fancy-indexed residual min per (slice, job, path) triple; returns
    the assignment and the visited-triple and grant counts.
    """
    x = np.asarray(x_int, dtype=float).copy()
    residual = structure.residual_capacity(x)
    residual = np.rint(np.maximum(residual, 0.0)).astype(np.int64)
    num_jobs = len(structure.jobs)
    targets = structure.demands if targets is None else targets
    deficits = targets - structure.delivered(x)
    first, span = structure.first_slice, structure.span
    offsets, lengths = structure.job_offset, structure.grid.lengths
    path_edges = [
        [np.asarray(p.edge_ids, dtype=np.int64) for p in structure.paths[i]]
        for i in range(num_jobs)
    ]
    visited = grants = 0
    for j in range(structure.grid.num_slices):
        active = np.nonzero((first <= j) & (j < first + span))[0]
        if active.size == 0:
            continue
        if order == "deficit_first":
            active = active[np.argsort(-deficits[active], kind="stable")]
        elif order == "random":
            active = rng.permutation(active)
        len_j = float(lengths[j])
        for i in active:
            if cap_at_target and deficits[i] <= 1e-12:
                continue
            base = int(offsets[i]) + (j - int(first[i]))
            sp_i = int(span[i])
            for p, edges in enumerate(path_edges[i]):
                visited += 1
                grant = int(residual[edges, j].min())
                if grant <= 0:
                    continue
                if cap_at_target:
                    needed = int(np.ceil(deficits[i] / len_j - 1e-12))
                    grant = min(grant, needed)
                    if grant <= 0:
                        continue
                x[base + p * sp_i] += grant
                residual[edges, j] -= grant
                deficits[i] -= grant * len_j
                grants += 1
    return x, visited, grants


def _random_instance(seed):
    """A random structure, a feasible integer start and greedy targets."""
    from repro import TimeGrid, topologies

    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(4, 8))
    net = topologies.ring(nodes, capacity=int(rng.integers(1, 5)))
    num_slices = int(rng.integers(1, 7))
    length = float(rng.choice([0.5, 1.0, 2.0]))
    grid = TimeGrid.uniform(num_slices, length)
    jobs = []
    for i in range(int(rng.integers(1, 7))):
        src, dst = rng.choice(nodes, size=2, replace=False)
        first = int(rng.integers(0, num_slices))
        last = int(rng.integers(first + 1, num_slices + 1))
        jobs.append(Job(id=i, source=int(src), dest=int(dst),
                        size=float(rng.uniform(0.3, 10.0)),
                        start=first * length, end=last * length))
    structure = ProblemStructure(net, JobSet(jobs), grid,
                                 k_paths=int(rng.integers(1, 4)))
    x = np.zeros(structure.num_cols)
    for c in rng.permutation(structure.num_cols):
        if rng.random() < 0.4:
            x[c] += 1.0
            if structure.residual_capacity(x).min() < 0:
                x[c] -= 1.0
    targets = None
    if rng.random() < 0.5:
        targets = rng.uniform(0.0, 1.5, len(jobs)) * structure.demands
    return structure, x, targets


class TestPythonWalkMatchesNumpyWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        order=st.sampled_from(["paper", "deficit_first", "random"]),
        cap_at_target=st.booleans(),
    )
    def test_same_x_and_counts(self, seed, order, cap_at_target):
        from repro.obs import Telemetry

        structure, x_int, targets = _random_instance(seed)
        expected, visited, grants = _numpy_greedy_adjust(
            structure, x_int, order, targets, cap_at_target,
            np.random.default_rng(seed),
        )
        with Telemetry() as telemetry:
            x = greedy_adjust(
                structure, x_int, order=order, targets=targets,
                cap_at_target=cap_at_target,
                rng=np.random.default_rng(seed),
            )
        (record,) = telemetry.records_of("greedy_adjust")
        assert np.array_equal(x, expected)
        assert record["visited_triples"] == visited
        assert record["grants"] == grants
