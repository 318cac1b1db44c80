"""Unit tests for the layered model engine and the solver-backend registry."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.backend as backend_mod
from repro.chaos import BackendFault, install_faulty_backend
from repro.core.ret import build_subret_lp, solve_ret
from repro.core.scheduler import Scheduler
from repro.core.throughput import build_stage1_lp
from repro.engine import (
    FragmentCache,
    HighsBackend,
    LayoutLayer,
    ModelEngine,
    TopologyLayer,
    append_column,
    available_backends,
    build_structure,
    capacity_floor_blocks,
    get_backend,
    register_backend,
    stage1_blocks,
)
from repro.errors import InfeasibleProblemError, ValidationError
from repro.lp.model import ProblemStructure, job_capacity_fragment
from repro.lp.solver import LinearProgram, SolveResilience, solve_lp
from repro.network import topologies
from repro.network.capacity import CapacityProfile
from repro.obs import Telemetry
from repro.timegrid import TimeGrid
from repro.workload.jobs import Job, JobSet


@pytest.fixture
def network():
    return topologies.ring(6, capacity=2)


@pytest.fixture
def jobs(network):
    nodes = network.nodes
    return JobSet(
        [
            Job(id="a", source=nodes[0], dest=nodes[3], size=4.0, start=0.0, end=4.0),
            Job(id="b", source=nodes[1], dest=nodes[4], size=2.0, start=1.0, end=5.0),
        ]
    )


@pytest.fixture
def telemetry():
    """A collector installed around the whole test."""
    with Telemetry() as collector:
        yield collector


def _matrices_equal(left, right):
    return (
        (left.capacity_matrix != right.capacity_matrix).nnz == 0
        and (left.demand_matrix != right.demand_matrix).nnz == 0
        and np.array_equal(left.cap_rhs, right.cap_rhs)
        and left.num_cols == right.num_cols
    )


def _structures_bit_identical(left, right):
    """Every array and matrix of two structures, compared exactly."""
    for name in (
        "first_slice",
        "span",
        "num_paths",
        "job_offset",
        "col_job",
        "col_slice",
        "col_path",
        "col_len",
        "demands",
        "cap_row_edge",
        "cap_row_slice",
        "cap_rhs",
    ):
        if not np.array_equal(getattr(left, name), getattr(right, name)):
            return False
    return (
        _matrices_equal(left, right)
        and left.grid == right.grid
        and [
            [tuple(p.edge_ids) for p in pset] for pset in left.paths
        ] == [[tuple(p.edge_ids) for p in pset] for pset in right.paths]
    )


class TestBackendRegistry:
    def test_bundled_backends_registered(self):
        assert set(available_backends()) >= {"highs", "simplex"}
        assert get_backend("highs").name == "highs"
        assert get_backend("simplex").name == "simplex"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValidationError, match="unknown backend 'cplex'"):
            get_backend("cplex")

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_backend(HighsBackend())
        # replace=True is the explicit override.
        register_backend(HighsBackend(), replace=True)
        assert get_backend("highs").name == "highs"

    def test_backend_needs_name_and_solve(self):
        class Nameless:
            solve = staticmethod(lambda problem, **kw: None)

        with pytest.raises(ValidationError, match="non-empty string"):
            register_backend(Nameless())

        class NoSolve:
            name = "broken"

        with pytest.raises(ValidationError, match="callable solve"):
            register_backend(NoSolve())

    def test_custom_backend_dispatches_through_solve_lp(self):
        calls = []

        class CountingBackend:
            name = "counting"

            def solve(self, problem, *, label=None, budget=None):
                calls.append(label)
                return HighsBackend().solve(problem, label=label, budget=budget)

        register_backend(CountingBackend())
        try:
            lp = LinearProgram(
                objective=np.array([1.0]),
                a_ub=np.array([[1.0]]),
                b_ub=np.array([3.0]),
                maximize=True,
            )
            solution = solve_lp(lp, backend="counting", label="probe")
            assert solution.x[0] == pytest.approx(3.0)
            assert calls == ["probe"]
        finally:
            backend_mod._REGISTRY.pop("counting", None)


class TestTopologyLayer:
    def test_path_sets_cached(self, network, jobs, telemetry):
        topo = TopologyLayer(network, k_paths=2)
        first = topo.path_sets(jobs.od_pairs())
        misses = telemetry.counters["path_cache_misses"]
        assert misses == len(first)
        second = topo.path_sets(jobs.od_pairs())
        assert telemetry.counters["path_cache_hits"] == len(first)
        for pair in first:
            assert second[pair] == first[pair]
            for cached, returned in zip(first[pair], second[pair]):
                assert returned is cached  # same Path objects, not re-routed

    def test_banned_edges_are_separate_entries(self, network, jobs):
        topo = TopologyLayer(network, k_paths=2)
        free = topo.path_sets(jobs.od_pairs())
        banned = topo.path_sets(jobs.od_pairs(), banned_edges=frozenset({0}))
        for pair in free:
            for path in banned[pair]:
                assert 0 not in path.edge_ids
        again = topo.path_sets(jobs.od_pairs(), banned_edges=frozenset({0}))
        for pair in banned:
            assert again[pair] == banned[pair]

    def test_k_paths_validated(self, network):
        with pytest.raises(ValidationError):
            TopologyLayer(network, k_paths=0)


class TestLayoutLayer:
    def test_exact_hit_returns_same_object(self, network, jobs, telemetry):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        first = engine.structure(jobs, grid)
        second = engine.structure(jobs, grid)
        assert second is first
        assert telemetry.counters["structure_cache_hits"] == 1
        assert telemetry.counters["cold_builds"] == 1

    def test_changing_jobs_busts_cache(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        first = engine.structure(jobs, grid)
        import dataclasses

        grown = JobSet([dataclasses.replace(j, size=j.size * 2.0) for j in jobs])
        second = engine.structure(grown, grid)
        assert second is not first
        assert not np.array_equal(first.demands, second.demands)

    def test_changing_grid_busts_cache(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        first = engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        second = engine.structure(
            jobs, TimeGrid.covering(jobs.max_end(), slice_length=0.5)
        )
        assert second is not first
        assert second.grid.num_slices != first.grid.num_slices

    def test_changing_capacity_profile_busts_cache(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        base = engine.structure(jobs, grid)
        profile = CapacityProfile.constant(network, grid)
        with_profile = engine.structure(jobs, grid, capacity_profile=profile)
        assert with_profile is not base
        u, v = network.edges[0].source, network.edges[0].target
        dimmed = CapacityProfile.with_maintenance(
            network, grid, [(u, v, 0.0, grid.end, 1)]
        )
        with_fault = engine.structure(jobs, grid, capacity_profile=dimmed)
        assert with_fault is not with_profile
        assert not np.array_equal(with_fault.cap_rhs, with_profile.cap_rhs)

    def test_engine_matrices_match_cold_build(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        warm = engine.structure(jobs, grid)
        cold = ProblemStructure(
            network, jobs, grid, 2,
            path_sets=engine.topology.path_sets(jobs.od_pairs()),
        )
        assert _matrices_equal(warm, cold)

    def test_fragment_reuse_across_layouts(self, network, jobs, telemetry):
        engine = ModelEngine(network, k_paths=2)
        engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        builds = telemetry.counters["layout_fragment_builds"]
        # Same windows on a longer grid: every per-job fragment recurs.
        engine.structure(jobs, TimeGrid.covering(jobs.max_end() + 3.0))
        assert telemetry.counters["layout_fragment_builds"] == builds
        assert telemetry.counters["layout_fragment_hits"] >= len(jobs)

    def test_lru_bound_evicts_oldest(self, network, jobs):
        engine = ModelEngine(network, k_paths=2, max_cached_structures=1)
        grid = TimeGrid.covering(jobs.max_end())
        first = engine.structure(jobs, grid)
        engine.structure(jobs, TimeGrid.covering(jobs.max_end(), 0.5))
        rebuilt = engine.structure(jobs, grid)
        assert rebuilt is not first  # evicted, so rebuilt fresh

    def test_max_structures_validated(self, network):
        topo = TopologyLayer(network, k_paths=2)
        with pytest.raises(ValidationError):
            LayoutLayer(topo, max_structures=0)


class TestJobCapacityFragment:
    def test_fragment_matches_direct_broadcast(self, network, jobs):
        structure = build_structure(
            network, jobs, TimeGrid.covering(jobs.max_end()), 2
        )
        for i in range(len(jobs)):
            paths = structure.paths[i]
            span = int(structure.span[i])
            edge, rel_slice, rel_col = job_capacity_fragment(paths, span)
            assert not edge.flags.writeable
            expect_edges = np.concatenate(
                [np.repeat(np.asarray(p.edge_ids), span) for p in paths]
            )
            assert np.array_equal(edge, expect_edges)
            assert rel_slice.min() == 0 and rel_slice.max() == span - 1
            assert rel_col.max() == len(paths) * span - 1


class TestCachedSolve:
    def test_memo_hit_returns_same_solution(self, network, jobs, telemetry):
        engine = ModelEngine(network, k_paths=2)
        structure = engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        first = engine.cached_solve(
            structure, "stage1", lambda: build_stage1_lp(structure)
        )
        second = engine.cached_solve(
            structure, "stage1", lambda: build_stage1_lp(structure)
        )
        assert second is first
        assert telemetry.counters["memo_hits"] == 1
        assert telemetry.counters["engine_solves"] == 1

    def test_infeasibility_is_memoized_and_replayed(self, network, telemetry):
        nodes = network.nodes
        impossible = JobSet(
            [Job(id="x", source=nodes[0], dest=nodes[3], size=1e6,
                 start=0.0, end=2.0)]
        )
        engine = ModelEngine(network, k_paths=2)
        structure = engine.structure(
            impossible, TimeGrid.covering(impossible.max_end())
        )
        for expected_hits in (0, 1):
            with pytest.raises(InfeasibleProblemError):
                engine.cached_solve(
                    structure, "subret", lambda: build_subret_lp(structure)
                )
            assert telemetry.counters.get("memo_hits", 0) == expected_hits

    def test_cache_false_always_solves(self, network, jobs, telemetry):
        engine = ModelEngine(network, k_paths=2)
        structure = engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        for _ in range(2):
            engine.cached_solve(
                structure, "stage1", lambda: build_stage1_lp(structure),
                cache=False,
            )
        assert telemetry.counters.get("memo_hits", 0) == 0
        assert telemetry.counters["engine_solves"] == 2

    def test_cold_engine_never_reuses(self, network, jobs, telemetry):
        engine = ModelEngine(network, k_paths=2, warm_start=False)
        grid = TimeGrid.covering(jobs.max_end())
        first = engine.structure(jobs, grid)
        second = engine.structure(jobs, grid)
        assert second is not first
        engine.cached_solve(first, "stage1", lambda: build_stage1_lp(first))
        engine.cached_solve(first, "stage1", lambda: build_stage1_lp(first))
        assert telemetry.counters.get("memo_hits", 0) == 0
        assert telemetry.counters.get("structure_cache_hits", 0) == 0
        assert telemetry.counters["engine_solves"] == 2

    def test_clear_drops_every_layer(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        structure = engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        engine.cached_solve(structure, "stage1", lambda: build_stage1_lp(structure))
        engine.clear()
        assert len(engine._solutions) == 0
        assert engine.structure(jobs, TimeGrid.covering(jobs.max_end())) is not structure


class TestEngineWindows:
    def test_extend_windows_matches_hand_built(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        b = 0.4
        extended = engine.extend_windows(jobs, b)
        by_hand = ProblemStructure(
            network,
            jobs.with_extended_ends(b),
            TimeGrid.covering(jobs.with_extended_ends(b).max_end()),
            2,
            path_sets=engine.topology.path_sets(jobs.od_pairs()),
        )
        assert _matrices_equal(extended, by_hand)

    def test_extend_windows_near_probes_share_solution(
        self, network, jobs, telemetry
    ):
        engine = ModelEngine(network, k_paths=2)
        first = engine.extend_windows(jobs, 0.25)
        second = engine.extend_windows(jobs, 0.2501)
        # Raw ends differ, so the exact structure cache must not alias
        # the two requests...
        assert second is not first
        # ...but a sub-slice b difference discretizes to the same
        # windows, so the solve memo treats them as one LP.
        assert second._engine_key == first._engine_key
        s1 = engine.cached_solve(
            first, "subret", lambda: build_subret_lp(first)
        )
        s2 = engine.cached_solve(
            second, "subret", lambda: build_subret_lp(second)
        )
        assert s2 is s1
        assert telemetry.counters["memo_hits"] == 1
        assert telemetry.counters["engine_solves"] == 1

    def test_extend_windows_validates_inputs(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        with pytest.raises(ValidationError):
            engine.extend_windows(jobs, -0.1)
        with pytest.raises(ValidationError):
            engine.extend_windows(jobs, 0.1, mode="sideways")


class TestAssemblyHelpers:
    def test_stage1_blocks_cached_on_structure(self, network, jobs):
        structure = build_structure(
            network, jobs, TimeGrid.covering(jobs.max_end()), 2
        )
        a_eq, b_eq, a_ub, b_ub = stage1_blocks(structure)
        a_eq2, _, a_ub2, _ = stage1_blocks(structure)
        assert a_eq2 is a_eq and a_ub2 is a_ub
        assert a_eq.shape == (len(jobs), structure.num_cols + 1)
        assert np.array_equal(b_ub, structure.cap_rhs)

    def test_capacity_floor_blocks_share_matrix_across_rhs(
        self, network, jobs
    ):
        structure = build_structure(
            network, jobs, TimeGrid.covering(jobs.max_end()), 2
        )
        a1, b1 = capacity_floor_blocks(structure, -structure.demands)
        a2, b2 = capacity_floor_blocks(structure, -0.5 * structure.demands)
        assert a2 is a1
        assert np.array_equal(b2[-len(jobs):], -0.5 * structure.demands)
        assert not np.array_equal(b1, b2)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 25),
        cols=st.integers(1, 30),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        seed=st.integers(0, 10_000),
        column=st.sampled_from([None, "values", "with_zeros"]),
    )
    def test_append_column_matches_hstack(self, rows, cols, density, seed,
                                          column):
        """The direct CSR build gives sp.hstack's arrays and dtypes."""
        rng = np.random.default_rng(seed)
        matrix = sp.random(rows, cols, density=density, format="csr",
                           random_state=seed)
        values = None
        if column is not None:
            values = -rng.uniform(0.5, 3.0, rows)
            if column == "with_zeros":
                values[rng.random(rows) < 0.5] = 0.0
        if values is None:
            extra = sp.csr_matrix((rows, 1))
        else:
            extra = sp.csr_matrix(
                (values, (np.arange(rows), np.zeros(rows, dtype=int))),
                shape=(rows, 1),
            )
        expected = sp.hstack([matrix, extra], format="csr")
        got = append_column(matrix, values)
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestFrontEndWiring:
    def test_scheduler_rejects_mismatched_engine(self, network, jobs):
        other = topologies.ring(6, capacity=2)
        with pytest.raises(ValidationError, match="different network"):
            Scheduler(network, engine=ModelEngine(other))
        with pytest.raises(ValidationError, match="k_paths"):
            Scheduler(network, k_paths=2, engine=ModelEngine(network, 4))

    def test_solve_ret_rejects_mismatched_engine(self, network, jobs):
        other = topologies.ring(6, capacity=2)
        with pytest.raises(ValidationError, match="different network"):
            solve_ret(network, jobs, engine=ModelEngine(other))
        with pytest.raises(ValidationError, match="k_paths"):
            solve_ret(network, jobs, k_paths=2, engine=ModelEngine(network, 4))

    def test_solve_ret_rejects_cold_request_on_warm_engine(self, network, jobs):
        # warm_start=False asks for no memo; a warm engine would memoize.
        warm = ModelEngine(network, 4)
        with pytest.raises(ValidationError, match="warm_start=False"):
            solve_ret(network, jobs, engine=warm, warm_start=False)
        assert len(warm._solutions) == 0
        cold = ModelEngine(network, 4, warm_start=False)
        solve_ret(network, jobs, engine=cold, warm_start=False)
        assert len(cold._solutions) == 0

    def test_stage2_solves_under_the_engine_resilience(self):
        # The engine owns the retry policy of the whole chain: a backend
        # failure on the first stage-2 solve (solve call 1; call 0 is
        # stage 1) costs a retry, not the schedule.
        net = topologies.abilene(capacity=1, wavelength_rate=20.0)
        jobs = JobSet(
            [
                Job(id="a", source="Seattle", dest="NewYork", size=30.0,
                    start=0.0, end=4.0),
                Job(id="b", source="LosAngeles", dest="Atlanta", size=20.0,
                    start=1.0, end=5.0),
            ]
        )
        resilience = SolveResilience(
            max_retries=2, perturbation=0.0, fallback_backend=None
        )
        clean = Scheduler(net).schedule(jobs)
        with install_faulty_backend((BackendFault("raise", 1),)) as backend:
            result = Scheduler(
                net, engine=ModelEngine(net, 4, resilience=resilience)
            ).schedule(jobs)
        assert backend.injected == 1
        assert result.x == pytest.approx(clean.x)

    def test_scheduler_reuses_engine_between_calls(
        self, network, jobs, telemetry
    ):
        scheduler = Scheduler(network, k_paths=2)
        scheduler.schedule(jobs)
        scheduler.schedule(jobs)
        assert telemetry.counters["structure_cache_hits"] >= 1

    def test_ret_probe_phases_are_explicit(self, network, telemetry):
        nodes = network.nodes
        tight = JobSet(
            [
                Job(id="t", source=nodes[0], dest=nodes[3], size=30.0,
                    start=0.0, end=2.0),
            ]
        )
        solve_ret(network, tight, k_paths=2)
        probes = telemetry.records_of("ret_probe")
        assert probes, "RET left no probe trace"
        phases = {p["phase"] for p in probes}
        assert phases <= {"bounds", "search", "delta"}
        bounds = [p for p in probes if p["phase"] == "bounds"]
        assert {p["b"] for p in bounds} <= {10.0, 0.0}
        assert probes[0]["phase"] == "bounds"

    def test_build_structure_factory_matches_direct(self, network, jobs):
        grid = TimeGrid.covering(jobs.max_end())
        via_factory = build_structure(network, jobs, grid, 2)
        direct = ProblemStructure(network, jobs, grid, 2)
        assert _matrices_equal(via_factory, direct)


class TestDeltaPatching:
    """Misses of the exact cache: a layout clone or a cold build.

    A clone (:func:`repro.engine.layout.patch_structure`) serves a miss
    whose layout — job ids and endpoints, slice windows, grid,
    ``k_paths``, routes — matches a cached structure; any other miss is
    a cold :class:`ProblemStructure` build.
    """

    def _cold(self, engine, jobs, grid, path_sets=None):
        if path_sets is None:
            path_sets = engine.topology.path_sets(jobs.od_pairs())
        return ProblemStructure(
            engine.network, jobs, grid, engine.k_paths, path_sets=path_sets
        )

    def test_shifted_windows_patch_bit_identical(
        self, network, jobs, telemetry
    ):
        """Shifted windows change the layout: a cold build, no clone."""
        engine = ModelEngine(network, k_paths=2)
        engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        shifted = JobSet(
            [
                dataclasses.replace(
                    j, start=j.start + 1.0, end=j.end + 1.0, size=j.size * 0.5
                )
                for j in jobs
            ]
        )
        grid = TimeGrid.covering(shifted.max_end())
        built = engine.structure(shifted, grid)
        assert telemetry.counters.get("structure_patch_hits", 0) == 0
        assert telemetry.counters["cold_builds"] == 2
        assert _structures_bit_identical(
            built, self._cold(engine, shifted, grid)
        )

    def test_departed_and_new_jobs_patch_bit_identical(
        self, network, jobs, telemetry
    ):
        """A changed job set is a cold build that reuses fragments."""
        engine = ModelEngine(network, k_paths=2)
        engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        nodes = network.nodes
        # Job "b" departs, a brand-new "c" arrives, "a"'s residual shrinks.
        changed = JobSet(
            [
                dataclasses.replace(jobs[0], size=1.5, start=2.0),
                Job(id="c", source=nodes[2], dest=nodes[5], size=3.0,
                    start=1.0, end=6.0),
            ]
        )
        grid = TimeGrid.covering(changed.max_end())
        built = engine.structure(changed, grid)
        assert telemetry.counters.get("structure_patch_hits", 0) == 0
        assert telemetry.counters["cold_builds"] == 2
        built_demand = built.demand_matrix
        cold = self._cold(engine, changed, grid)
        assert _structures_bit_identical(built, cold)
        # The closed-form demand CSR keeps the COO build's int32 indices.
        reference = sp.coo_matrix(
            (cold.col_len, (cold.col_job, np.arange(cold.num_cols))),
            shape=cold.demand_matrix.shape,
        ).tocsr()
        for name in ("data", "indices", "indptr"):
            got, want = getattr(built_demand, name), getattr(reference, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_same_layout_clone_shares_matrices(self, network, jobs, telemetry):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        donor = engine.structure(jobs, grid)
        shrunk = JobSet(
            [dataclasses.replace(j, size=j.size * 0.25) for j in jobs]
        )
        clone = engine.structure(shrunk, grid)
        assert telemetry.counters["structure_patch_hits"] == 1
        # Same windows, routes and grid: the donor's assembled matrices
        # apply verbatim — shared, not recomputed.
        assert clone.capacity_matrix is donor.capacity_matrix
        assert clone.demand_matrix is donor.demand_matrix
        assert clone.col_slice is donor.col_slice
        assert clone.jobs is shrunk
        record = telemetry.records_of("structure_patched")[0]
        assert record["num_cols"] == donor.num_cols
        assert _structures_bit_identical(clone, self._cold(engine, shrunk, grid))

    def test_miss_tries_at_most_one_donor(
        self, network, jobs, telemetry, monkeypatch
    ):
        import repro.engine.layout as layout_mod

        calls = []
        clone = layout_mod.patch_structure

        def counting(*args, **kwargs):
            calls.append(args)
            return clone(*args, **kwargs)

        monkeypatch.setattr(layout_mod, "patch_structure", counting)
        engine = ModelEngine(network, k_paths=2)
        for extra in range(8):
            engine.structure(
                jobs, TimeGrid.covering(jobs.max_end() + float(extra))
            )
        # Windows shifted by half a slice: a layout no cached structure
        # has, so the miss is one cold build and no donor is tried.
        shifted = JobSet(
            [dataclasses.replace(j, start=j.start + 0.5, end=j.end + 0.5)
             for j in jobs]
        )
        engine.structure(shifted, TimeGrid.covering(shifted.max_end()))
        assert len(calls) == 0
        assert telemetry.counters["cold_builds"] == 9
        # A layout-equal miss clones from exactly one donor.
        engine.structure(
            JobSet([dataclasses.replace(j, size=1.0) for j in jobs]),
            TimeGrid.covering(jobs.max_end()),
        )
        assert len(calls) == 1
        assert telemetry.counters["structure_patch_hits"] == 1

    def test_clone_found_after_seven_other_builds(
        self, network, jobs, telemetry
    ):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        donor = engine.structure(jobs, grid)
        for extra in range(1, 8):
            engine.structure(
                jobs, TimeGrid.covering(jobs.max_end() + float(extra))
            )
        shrunk = JobSet(
            [dataclasses.replace(j, size=j.size * 0.5) for j in jobs]
        )
        clone = engine.structure(shrunk, grid)
        assert telemetry.counters["structure_patch_hits"] == 1
        assert clone.capacity_matrix is donor.capacity_matrix

    def test_layout_index_respects_bound(self, network, jobs):
        engine = ModelEngine(network, k_paths=2, max_cached_structures=3)
        for extra in range(6):
            engine.structure(
                jobs, TimeGrid.covering(jobs.max_end() + float(extra))
            )
            assert len(engine.layout._layouts) <= 3
        assert len(engine.layout._layouts) == 3

    def test_patch_declines_when_routes_change(self, network, jobs, telemetry):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        engine.structure(jobs, grid)
        # A fault reroute: the same jobs resolve to different paths, so
        # the donor's routes must not be reused.
        banned = engine.topology.path_sets(
            jobs.od_pairs(), banned_edges=frozenset({0})
        )
        rebuilt = engine.structure(jobs, grid, path_sets=banned)
        assert telemetry.counters.get("structure_patch_hits", 0) == 0
        assert telemetry.counters["cold_builds"] == 2
        assert _structures_bit_identical(
            rebuilt, self._cold(engine, jobs, grid, path_sets=banned)
        )

    def test_patch_declines_under_capacity_profile(
        self, network, jobs, telemetry
    ):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        engine.structure(jobs, grid)
        profile = CapacityProfile.constant(network, grid)
        engine.structure(jobs, grid, capacity_profile=profile)
        assert telemetry.counters.get("structure_patch_hits", 0) == 0
        assert telemetry.counters["cold_builds"] == 2

    def test_patched_structures_carry_engine_key(
        self, network, jobs, telemetry
    ):
        engine = ModelEngine(network, k_paths=2)
        grid = TimeGrid.covering(jobs.max_end())
        donor = engine.structure(jobs, grid)
        shrunk = JobSet(
            [dataclasses.replace(j, size=j.size * 0.5) for j in jobs]
        )
        clone = engine.structure(shrunk, grid)
        assert telemetry.counters["structure_patch_hits"] == 1
        # Same layout, other demands: a different LP, so a different key.
        assert clone._engine_key is not None
        assert clone._engine_key != donor._engine_key
        assert clone._engine_key[0] == donor._engine_key[0]
        # The solve memo works over clones: two solves, one LP.
        engine.cached_solve(clone, "stage1", lambda: build_stage1_lp(clone))
        engine.cached_solve(clone, "stage1", lambda: build_stage1_lp(clone))
        assert telemetry.counters["memo_hits"] == 1
        assert telemetry.counters.get("engine_memo_bypass", 0) == 0
        # ...and the donor's LP is not served from the clone's entry.
        engine.cached_solve(donor, "stage1", lambda: build_stage1_lp(donor))
        assert telemetry.counters["memo_hits"] == 1
        assert telemetry.counters["engine_solves"] == 2

    def test_memo_bypass_counted_for_unkeyed_structures(
        self, network, jobs, telemetry
    ):
        engine = ModelEngine(network, k_paths=2)
        # Built outside the engine: no _engine_key, so the memo cannot
        # apply and the bypass must be visible.
        outside = ProblemStructure(
            network, jobs, TimeGrid.covering(jobs.max_end()), 2,
            path_sets=engine.topology.path_sets(jobs.od_pairs()),
        )
        engine.cached_solve(outside, "stage1", lambda: build_stage1_lp(outside))
        assert telemetry.counters["engine_memo_bypass"] == 1
        assert telemetry.counters.get("memo_hits", 0) == 0


class TestCacheBounds:
    def test_fragment_cache_is_lru_bounded(self):
        cache = FragmentCache(max_entries=2)
        cache["a"], cache["b"] = 1, 2
        assert cache.get("a") == 1  # refreshes recency: "b" is now oldest
        cache["c"] = 3
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_fragment_cache_validates_bound(self):
        with pytest.raises(ValidationError):
            FragmentCache(max_entries=0)

    def test_layout_fragments_respect_bound(self, network, jobs):
        engine = ModelEngine(network, k_paths=2, max_cached_fragments=1)
        for extra in range(4):
            engine.structure(
                jobs, TimeGrid.covering(jobs.max_end() + float(extra))
            )
        assert len(engine.layout._fragments) <= 1

    def test_solution_memo_is_lru_bounded(self, network, jobs):
        engine = ModelEngine(network, k_paths=2, max_cached_solutions=2)
        for extra in range(4):
            s = engine.structure(
                jobs, TimeGrid.covering(jobs.max_end() + float(extra))
            )
            engine.cached_solve(s, "stage1", lambda s=s: build_stage1_lp(s))
        assert len(engine._solutions) == 2


class TestConstructionStaysLazy:
    """Construction builds no path, structure or LP.

    The benchmark's ``setup_s`` times network, jobs and driver
    construction; every engine cache must fill on first use, after it.
    """

    FILLED = ("path_cache_misses", "cold_builds", "structures_built",
              "lp_solves")

    def test_simulation_and_journaled_service(self, tmp_path):
        from repro import Simulation
        from repro.service import ReservationService

        with Telemetry() as telemetry:
            Simulation(
                topologies.abilene(capacity=1, wavelength_rate=20.0),
                policy="extend",
                verify_epochs=True,
            )
            service = ReservationService(
                topologies.abilene(capacity=1, wavelength_rate=20.0),
                journal=tmp_path / "serve.jsonl",
            )
            service.close()
        assert not set(self.FILLED) & set(telemetry.counters)
