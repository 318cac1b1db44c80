"""Unit tests for the layered model engine and the solver-backend registry."""

import dataclasses

import numpy as np
import pytest

import repro.engine.backend as backend_mod
from repro.core.ret import build_subret_lp, solve_ret
from repro.core.scheduler import Scheduler
from repro.core.throughput import build_stage1_lp
from repro.engine import (
    FragmentCache,
    HighsBackend,
    LayoutLayer,
    ModelEngine,
    TopologyLayer,
    available_backends,
    build_structure,
    capacity_floor_blocks,
    get_backend,
    register_backend,
    stage1_blocks,
)
from repro.errors import InfeasibleProblemError, ValidationError
from repro.lp.model import ProblemStructure, job_capacity_fragment
from repro.lp.solver import LinearProgram, solve_lp
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

            def solve(self, problem, *, telemetry=None, label=None,
                      budget=None):
                calls.append(label)
                return HighsBackend().solve(
                    problem, telemetry=telemetry, label=label, budget=budget
                )

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

    def test_engine_rejects_unknown_backend_eagerly(self, network):
        with pytest.raises(ValidationError, match="unknown backend"):
            ModelEngine(network, backend="gurobi")


class TestTopologyLayer:
    def test_path_sets_cached(self, network, jobs):
        telemetry = Telemetry()
        topo = TopologyLayer(network, k_paths=2, telemetry=telemetry)
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
    def test_exact_hit_returns_same_object(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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

    def test_fragment_reuse_across_layouts(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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
    def test_memo_hit_returns_same_solution(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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

    def test_infeasibility_is_memoized_and_replayed(self, network):
        nodes = network.nodes
        impossible = JobSet(
            [Job(id="x", source=nodes[0], dest=nodes[3], size=1e6,
                 start=0.0, end=2.0)]
        )
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
        structure = engine.structure(
            impossible, TimeGrid.covering(impossible.max_end())
        )
        for expected_hits in (0, 1):
            with pytest.raises(InfeasibleProblemError):
                engine.cached_solve(
                    structure, "subret", lambda: build_subret_lp(structure)
                )
            assert telemetry.counters.get("memo_hits", 0) == expected_hits

    def test_cache_false_always_solves(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
        structure = engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        for _ in range(2):
            engine.cached_solve(
                structure, "stage1", lambda: build_stage1_lp(structure),
                cache=False,
            )
        assert telemetry.counters.get("memo_hits", 0) == 0
        assert telemetry.counters["engine_solves"] == 2

    def test_cold_engine_never_reuses(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine.cold(network, k_paths=2, telemetry=telemetry)
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

    def test_extend_windows_near_probes_share_solution(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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

    def test_for_grid_rebuilds_on_new_grid(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        base = engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        finer = engine.for_grid(base, TimeGrid.covering(jobs.max_end(), 0.5))
        assert finer.grid.num_slices == 2 * base.grid.num_slices
        assert finer.paths[0][0].edge_ids == base.paths[0][0].edge_ids


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

    def test_capacity_floor_blocks_share_matrix_across_rhs(self, network, jobs):
        structure = build_structure(
            network, jobs, TimeGrid.covering(jobs.max_end()), 2
        )
        a1, b1 = capacity_floor_blocks(structure, -structure.demands)
        a2, b2 = capacity_floor_blocks(structure, -0.5 * structure.demands)
        assert a2 is a1
        assert np.array_equal(b2[-len(jobs):], -0.5 * structure.demands)
        assert not np.array_equal(b1, b2)


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

    def test_scheduler_reuses_engine_between_calls(self, network, jobs):
        telemetry = Telemetry()
        scheduler = Scheduler(network, k_paths=2, telemetry=telemetry)
        scheduler.schedule(jobs)
        scheduler.schedule(jobs)
        assert telemetry.counters["structure_cache_hits"] >= 1

    def test_ret_probe_phases_are_explicit(self, network):
        nodes = network.nodes
        tight = JobSet(
            [
                Job(id="t", source=nodes[0], dest=nodes[3], size=30.0,
                    start=0.0, end=2.0),
            ]
        )
        telemetry = Telemetry()
        solve_ret(network, tight, k_paths=2, telemetry=telemetry)
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
    """Near-miss structure patching (repro.engine.delta.patch_structure)."""

    def _cold(self, engine, jobs, grid, path_sets=None):
        if path_sets is None:
            path_sets = engine.topology.path_sets(jobs.od_pairs())
        return ProblemStructure(
            engine.network, jobs, grid, engine.k_paths, path_sets=path_sets
        )

    def test_shifted_windows_patch_bit_identical(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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
        patched = engine.structure(shifted, grid)
        assert telemetry.counters["structure_patch_hits"] == 1
        assert telemetry.counters["cold_builds"] == 1
        assert _structures_bit_identical(
            patched, self._cold(engine, shifted, grid)
        )

    def test_departed_and_new_jobs_patch_bit_identical(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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
        patched = engine.structure(changed, grid)
        assert telemetry.counters["structure_patch_hits"] == 1
        assert _structures_bit_identical(
            patched, self._cold(engine, changed, grid)
        )

    def test_same_layout_clone_shares_matrices(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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
        record = telemetry.records_of("structure_patched")[0]
        assert record["clone"] is True
        assert _structures_bit_identical(clone, self._cold(engine, shrunk, grid))

    def test_patch_declines_when_routes_change(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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

    def test_patch_declines_under_capacity_profile(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
        grid = TimeGrid.covering(jobs.max_end())
        engine.structure(jobs, grid)
        profile = CapacityProfile.constant(network, grid)
        engine.structure(jobs, grid, capacity_profile=profile)
        assert telemetry.counters.get("structure_patch_hits", 0) == 0
        assert telemetry.counters["cold_builds"] == 2

    def test_patched_structures_carry_engine_key(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
        engine.structure(jobs, TimeGrid.covering(jobs.max_end()))
        shifted = JobSet(
            [dataclasses.replace(j, start=j.start + 1.0, end=j.end + 1.0)
             for j in jobs]
        )
        patched = engine.structure(shifted, TimeGrid.covering(shifted.max_end()))
        assert telemetry.counters["structure_patch_hits"] == 1
        assert patched._engine_key is not None
        # The solve memo works over patched structures: two solves, one LP.
        engine.cached_solve(patched, "stage1", lambda: build_stage1_lp(patched))
        engine.cached_solve(patched, "stage1", lambda: build_stage1_lp(patched))
        assert telemetry.counters["memo_hits"] == 1
        assert telemetry.counters.get("engine_memo_bypass", 0) == 0

    def test_memo_bypass_counted_for_unkeyed_structures(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
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


class TestCarriedPlan:
    def test_scheduler_carries_committed_plan(self, network, jobs):
        engine = ModelEngine(network, k_paths=2)
        scheduler = Scheduler(network, k_paths=2, engine=engine)
        assert not engine.has_carried_plan
        scheduler.schedule(jobs)
        assert engine.has_carried_plan

    def test_cold_engine_never_carries(self, network, jobs):
        engine = ModelEngine.cold(network, k_paths=2)
        Scheduler(network, k_paths=2, engine=engine).schedule(jobs)
        assert not engine.has_carried_plan
        assert not engine.certify_feasible(jobs, TimeGrid.covering(4.0), {})

    def test_witness_certifies_feasible_instance(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
        Scheduler(network, k_paths=2, engine=engine).schedule(jobs)
        grid = TimeGrid.covering(jobs.max_end())
        path_sets = engine.topology.path_sets(jobs.od_pairs())
        assert engine.certify_feasible(jobs, grid, path_sets)
        assert telemetry.counters["ret_witness_hits"] == 1

    def test_witness_declines_oversized_demand(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
        Scheduler(network, k_paths=2, engine=engine).schedule(jobs)
        grid = TimeGrid.covering(jobs.max_end())
        path_sets = engine.topology.path_sets(jobs.od_pairs())
        huge = JobSet([dataclasses.replace(j, size=1e6) for j in jobs])
        assert not engine.certify_feasible(huge, grid, path_sets)
        assert telemetry.counters["ret_witness_misses"] == 1

    def test_invalidate_drops_the_plan(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
        Scheduler(network, k_paths=2, engine=engine).schedule(jobs)
        engine.invalidate_carried()
        assert not engine.has_carried_plan
        assert telemetry.counters["carried_invalidations"] == 1
        engine.invalidate_carried()  # idempotent: nothing left to count
        assert telemetry.counters["carried_invalidations"] == 1

    def test_ret_skips_bounds_probe_with_witness(self, network, jobs):
        telemetry = Telemetry()
        engine = ModelEngine(network, k_paths=2, telemetry=telemetry)
        Scheduler(network, k_paths=2, engine=engine).schedule(jobs)
        cold = solve_ret(network, jobs, k_paths=2, warm_start=False)
        warm = solve_ret(
            network, jobs, k_paths=2, engine=engine, telemetry=telemetry
        )
        assert telemetry.counters["ret_witness_skips"] == 1
        probes = telemetry.records_of("ret_probe")
        assert probes[0]["phase"] == "bounds"
        assert probes[0].get("witness") is True
        # The skipped probe changes nothing about the answer.
        assert warm.b_hat == pytest.approx(cold.b_hat)
        assert warm.b_final == pytest.approx(cold.b_final)
        assert np.array_equal(
            warm.assignments.x_lpdar, cold.assignments.x_lpdar
        )
