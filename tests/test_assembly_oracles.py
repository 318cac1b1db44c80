"""The per-structure caches change no byte: each rewrite against the code it replaced.

Every LP family's HiGHS arrays, Algorithm 1's tables and the cold
build's capacity block are built once per structure now, and
``LinearProgram`` validation and the post-solve check run fewer NumPy
calls.  This file keeps the replaced code as reference implementations
(``_ref_*``) and compares the new code with it bitwise, under
Hypothesis over :func:`~repro.verify.fuzz.make_scenario`:

* the capacity and demand blocks of a cold build;
* ``greedy_adjust`` in all three orders, with and without
  ``cap_at_target`` and ``targets``;
* the arrays handed to HiGHS for stage 1, every alpha of stage 2 and
  SUB-RET (``_stacked_rows``, cost, column and row bounds);
* ``_passes_linprog_check`` at NaN, ``±inf`` and at ``±tol``;
* ``LinearProgram``'s rejections (same exception type and message).

A recorded run of golden sim 0 and serve 0 then shows that every HiGHS
load gets the same arrays, values and dtypes, as with the reference
assembly swapped in.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.engine.backend as backend_mod
import repro.lp.solver as solver
from repro import Simulation
from repro.core import ret as ret_mod
from repro.core import stage2 as stage2_mod
from repro.core import throughput as throughput_mod
from repro.core.stage2 import build_stage2_lp, objective_weights
from repro.core.throughput import build_stage1_lp, solve_stage1
from repro.engine.assembly import append_column
from repro.errors import (
    InfeasibleProblemError,
    SolverError,
    UnboundedProblemError,
    ValidationError,
)
from repro.lp.model import ProblemStructure
from repro.lp.solver import HighsRun, LinearProgram
from repro.obs import current
from repro.service import ReservationService
from repro.service.driver import ClosedLoopDriver
from repro.verify.fuzz import make_scenario

lpdar_mod = importlib.import_module("repro.core.lpdar")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
seeds = st.integers(min_value=0, max_value=100_000)


# ----------------------------------------------------------------------
# Reference implementations: the code each rewrite replaced
# ----------------------------------------------------------------------
def _ref_capacity_block(structure: ProblemStructure):
    """The capacity block through ``np.unique`` and a COO->CSR round trip."""
    num_slices = structure.grid.num_slices
    row_keys_parts, col_parts = [], []
    for i in range(len(structure.jobs)):
        span = int(structure.span[i])
        rel = np.arange(span, dtype=np.int64)
        edge_ids = [path.edge_ids for path in structure.paths[i]]
        edges = np.fromiter((e for ids in edge_ids for e in ids), dtype=np.int64)
        path_of_edge = np.repeat(
            np.arange(len(edge_ids), dtype=np.int64),
            [len(ids) for ids in edge_ids],
        )
        edge = np.repeat(edges, span)
        rel_slice = np.tile(rel, len(edges))
        rel_col = np.repeat(path_of_edge * span, span) + rel_slice
        row_keys_parts.append(
            edge * num_slices + (int(structure.first_slice[i]) + rel_slice)
        )
        col_parts.append(int(structure.job_offset[i]) + rel_col)
    row_keys = np.concatenate(row_keys_parts)
    cols = np.concatenate(col_parts)
    unique_keys, rows = np.unique(row_keys, return_inverse=True)
    cap_row_edge = (unique_keys // num_slices).astype(np.int64)
    cap_row_slice = (unique_keys % num_slices).astype(np.int64)
    if structure.capacity_profile is not None:
        cap_rhs = structure.capacity_profile.matrix[
            cap_row_edge, cap_row_slice
        ].astype(float)
    else:
        cap_rhs = structure.network.capacities()[cap_row_edge].astype(float)
    matrix = sp.coo_matrix(
        (np.ones(len(cols), dtype=float), (rows, cols)),
        shape=(len(unique_keys), structure.num_cols),
    ).tocsr()
    return matrix, cap_row_edge, cap_row_slice, cap_rhs


def _ref_demand_block(structure: ProblemStructure):
    return sp.csr_matrix(
        (
            structure.col_len.copy(),
            np.arange(structure.num_cols, dtype=np.int64),
            structure.job_offset.copy(),
        ),
        shape=(len(structure.jobs), structure.num_cols),
    )


def _ref_greedy_adjust(structure, x_int, order="paper", targets=None,
                       cap_at_target=False, rng=None):
    """Algorithm 1 as it rebuilt every table on every call.

    Returns the assignment and the visited-triple and grant counts.
    """
    x = np.asarray(x_int, dtype=float)
    residual = structure.residual_capacity(x)
    if residual.min(initial=0.0) < -1e-9:
        raise ValidationError("input assignment already violates capacity")
    residual = np.rint(np.maximum(residual, 0.0)).astype(np.int64)
    num_jobs = len(structure.jobs)
    targets = structure.demands if targets is None else np.asarray(targets)
    deficits = (targets - structure.delivered(x)).tolist()
    columns = residual.T.tolist()
    x_out = x.tolist()
    starts = structure.first_slice.tolist()
    spans = structure.span.tolist()
    offsets = structure.job_offset.tolist()
    lengths = structure.grid.lengths.tolist()
    path_edges = [[p.edge_ids for p in structure.paths[i]]
                  for i in range(num_jobs)]
    num_slices = structure.grid.num_slices
    active_in = [[] for _ in range(num_slices)]
    for i, (start, count) in enumerate(zip(starts, spans)):
        for j in range(start, min(start + count, num_slices)):
            active_in[j].append(i)
    visited = grants = 0
    for j, active in enumerate(active_in):
        if not active:
            continue
        if order == "random":
            active = rng.permutation(np.array(active, dtype=np.intp)).tolist()
        elif order == "deficit_first":
            active.sort(key=lambda i: -deficits[i])
        column = columns[j]
        len_j = lengths[j]
        for i in active:
            if cap_at_target and deficits[i] <= 1e-12:
                continue
            base = offsets[i] + (j - starts[i])
            visited += len(path_edges[i])
            for p, edges in enumerate(path_edges[i]):
                grant = min(column[e] for e in edges)
                if grant <= 0:
                    continue
                if cap_at_target:
                    grant = min(grant, math.ceil(deficits[i] / len_j - 1e-12))
                    if grant <= 0:
                        continue
                x_out[base + p * spans[i]] += grant
                for e in edges:
                    column[e] -= grant
                deficits[i] -= grant * len_j
                grants += 1
    return np.array(x_out, dtype=float), visited, grants


def _ref_capacity_floor_blocks(structure, floor_rhs):
    a_ub = sp.vstack(
        [structure.capacity_matrix, -structure.demand_matrix], format="csr"
    )
    b_ub = np.concatenate([structure.cap_rhs, np.asarray(floor_rhs, dtype=float)])
    return a_ub, b_ub


def _ref_build_stage2_lp(structure, zstar, alpha=0.1, weights=None):
    fairness_rhs = -(1.0 - alpha) * zstar * structure.demands
    a_ub, b_ub = _ref_capacity_floor_blocks(structure, fairness_rhs)
    return LinearProgram(
        objective=objective_weights(structure, weights),
        a_ub=a_ub, b_ub=b_ub, maximize=True,
    )


def _ref_build_subret_lp(structure, gamma=ret_mod.quick_finish_gamma):
    costs = gamma(structure.col_slice)
    if np.any(costs <= 0) or not np.all(np.isfinite(costs)):
        raise ValidationError("gamma must produce positive finite costs")
    a_ub, b_ub = _ref_capacity_floor_blocks(structure, -structure.demands)
    return LinearProgram(objective=costs, a_ub=a_ub, b_ub=b_ub, maximize=False)


def _ref_build_stage1_lp(structure):
    a_eq = append_column(structure.demand_matrix, -structure.demands)
    a_ub = append_column(structure.capacity_matrix)
    objective = np.zeros(structure.num_cols + 1)
    objective[-1] = 1.0
    return LinearProgram(
        objective=objective, a_ub=a_ub, b_ub=structure.cap_rhs,
        a_eq=a_eq, b_eq=np.zeros(len(structure.jobs)), maximize=True,
    )


def _ref_canonical_csr(block):
    if not sp.issparse(block):
        return sp.csr_array(np.asarray(block, dtype=float))
    if block.format != "csr":
        block = block.tocsr()
    if not block.has_canonical_format:
        block = block.copy()
        block.sum_duplicates()
    return block


def _ref_stacked_rows(problem):
    indptr = [np.zeros(1, dtype=np.int32)]
    indices = [np.empty(0, dtype=np.int32)]
    data = [np.empty(0)]
    offset = 0
    for block in (problem.a_ub, problem.a_eq):
        if block is None:
            continue
        block = _ref_canonical_csr(block)
        indptr.append(block.indptr[1:] + offset)
        indices.append(block.indices)
        data.append(block.data)
        offset += block.nnz
    return np.concatenate(indptr), np.concatenate(indices), np.concatenate(data)


def _ref_bounds_arrays(problem):
    lo = np.broadcast_to(np.asarray(problem.lower, float), (problem.num_vars,))
    hi = np.broadcast_to(np.asarray(problem.upper, float), (problem.num_vars,))
    if np.any(lo > hi):
        raise ValidationError("a lower bound exceeds its upper bound")
    return lo.copy(), hi.copy()


def _ref_highs_inputs(problem):
    """What the replaced ``solve_highs`` handed to ``run_highs``."""
    cost = -problem.objective if problem.maximize else problem.objective
    lo, hi = _ref_bounds_arrays(problem)
    b_ub = np.empty(0) if problem.b_ub is None else problem.b_ub
    b_eq = np.empty(0) if problem.b_eq is None else problem.b_eq
    return (
        cost, lo, hi,
        np.concatenate((np.full(b_ub.shape[0], -np.inf), b_eq)),
        np.concatenate((b_ub, b_eq)),
        *_ref_stacked_rows(problem),
    )


def _ref_passes_linprog_check(run, lo, hi, b_ub, b_eq):
    tol = solver._FEASIBILITY_TOL
    m_ub = b_ub.shape[0]
    slack = b_ub - run.row_value[:m_ub]
    residual = b_eq - run.row_value[m_ub:]
    if (np.isnan(run.objective) or np.isnan(slack).any()
            or np.isnan(residual).any()):
        return False
    return bool(
        np.all((run.x >= lo - tol) & (run.x <= hi + tol))
        and not (slack < -tol).any()
        and not (np.abs(residual) > tol).any()
    )


def _ref_solve_highs(problem, label=None, budget=None):
    """The replaced ``solve_highs``, inputs and outputs."""
    cost, lo, hi, row_lower, row_upper, *rows = _ref_highs_inputs(problem)
    b_ub = np.empty(0) if problem.b_ub is None else problem.b_ub
    b_eq = np.empty(0) if problem.b_eq is None else problem.b_eq
    time_limit = None if budget is None else budget.backend_time_limit()
    with current().span("lp_solve") as span:
        run = solver.run_highs(cost, lo, hi, row_lower, row_upper,
                               tuple(rows), time_limit)
    status = solver._LINPROG_STATUS.get(run.status, 4)
    if status == 0 and not _ref_passes_linprog_check(run, lo, hi, b_ub, b_eq):
        status = 4
    if status == 2:
        raise InfeasibleProblemError()
    if status == 3:
        raise UnboundedProblemError()
    if status != 0:
        raise SolverError("LP solve failed", status=status)
    objective = float(run.objective)
    if problem.maximize:
        objective = -objective
    x = run.x
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)
    duals = -run.row_dual
    solution = solver.LPSolution(
        x=x, objective=objective, iterations=int(run.iterations),
        ineq_duals=duals[: b_ub.shape[0]], eq_duals=duals[b_ub.shape[0]:],
    )
    solver._record_solve(problem, solution, "highs", span.elapsed, label)
    return solution


def _ref_validate(objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                  lower=0.0, upper=np.inf):
    """The replaced ``LinearProgram.__post_init__`` and ``bounds_arrays``."""
    objective = np.asarray(objective, dtype=float)
    if objective.ndim != 1:
        raise ValidationError("objective must be a 1-D coefficient vector")
    if not np.all(np.isfinite(objective)):
        raise ValidationError(
            "objective coefficients must be finite (a corrupt problem "
            "would silently poison the solve)"
        )
    n = objective.shape[0]
    for name, mat, rhs in (("a_ub", a_ub, b_ub), ("a_eq", a_eq, b_eq)):
        if (mat is None) != (rhs is None):
            raise ValidationError(f"{name} and its rhs must come together")
        if mat is None:
            continue
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if rhs.ndim != 1:
            raise ValidationError(
                f"{name}'s rhs must be a scalar or 1-D vector, "
                f"got shape {rhs.shape}"
            )
        if not np.all(np.isfinite(rhs)):
            raise ValidationError(
                f"{name}'s rhs must be finite; non-finite right-hand sides "
                "(e.g. from a corrupt checkpoint) are rejected"
            )
        if mat.shape[1] != n:
            raise ValidationError(f"{name} has {mat.shape[1]} columns, expected {n}")
        if mat.shape[0] != rhs.shape[0]:
            raise ValidationError(
                f"{name} has {mat.shape[0]} rows but rhs has {rhs.shape[0]}"
            )
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise ValidationError("variable bounds must not contain NaN")
    if np.any(lo == np.inf):
        raise ValidationError("a lower bound is +inf (no feasible value)")
    if np.any(hi == -np.inf):
        raise ValidationError("an upper bound is -inf (no feasible value)")
    lo = np.broadcast_to(lo, (n,))
    hi = np.broadcast_to(hi, (n,))
    if np.any(lo > hi):
        raise ValidationError("a lower bound exceeds its upper bound")
    return lo.copy(), hi.copy()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _same(a, b) -> bool:
    """Bitwise equality of two arrays: dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _structure(seed: int, k_paths: int = 3) -> ProblemStructure:
    scenario = make_scenario(seed, allow_faults=False)
    return ProblemStructure(scenario.network, scenario.jobs, scenario.grid,
                            k_paths=k_paths)


def _feasible_integer_x(structure, rng) -> np.ndarray:
    """A random integer assignment inside every capacity."""
    x = np.zeros(structure.num_cols)
    for c in rng.permutation(structure.num_cols):
        if rng.random() < 0.4:
            x[c] += 1.0
            if structure.residual_capacity(x).min() < 0:
                x[c] -= 1.0
    return x


def _capture_highs_inputs(problem):
    """The arrays ``solve_highs`` hands ``run_highs`` for ``problem``."""
    calls = []

    def run(*args):
        calls.append(args)
        return HighsRun(solver._MODEL.kInfeasible, "recorded")

    original = solver.run_highs
    solver.run_highs = run
    try:
        with pytest.raises(InfeasibleProblemError):
            solver.solve_highs(problem)
    finally:
        solver.run_highs = original
    cost, lo, hi, row_lower, row_upper, rows, _limit = calls[0]
    return (cost, lo, hi, row_lower, row_upper, *rows)


def _assert_same_inputs(new, ref):
    names = ("cost", "col_lower", "col_upper", "row_lower", "row_upper",
             "indptr", "indices", "data")
    for name, a, b in zip(names, new, ref):
        assert _same(a, b), name


# ----------------------------------------------------------------------
# Cold build: the capacity and demand blocks
# ----------------------------------------------------------------------
class TestCapacityBlock:
    @SETTINGS
    @given(seed=seeds, k_paths=st.integers(1, 4))
    def test_csr_arrays_match_the_coo_round_trip(self, seed, k_paths):
        structure = _structure(seed, k_paths)
        matrix, row_edge, row_slice, rhs = _ref_capacity_block(structure)
        new = structure.capacity_matrix
        assert type(new) is type(matrix)
        for attr in ("indptr", "indices", "data"):
            assert _same(getattr(new, attr), getattr(matrix, attr)), attr
        assert _same(structure.cap_row_edge, row_edge)
        assert _same(structure.cap_row_slice, row_slice)
        assert _same(structure.cap_rhs, rhs)
        demand = _ref_demand_block(structure)
        for attr in ("indptr", "indices", "data"):
            assert _same(getattr(structure.demand_matrix, attr),
                         getattr(demand, attr)), attr


# ----------------------------------------------------------------------
# Algorithm 1
# ----------------------------------------------------------------------
class TestGreedyAdjust:
    @SETTINGS
    @given(seed=seeds, cap_at_target=st.booleans(), with_targets=st.booleans())
    def test_same_x_and_counts(self, seed, cap_at_target, with_targets):
        from repro.obs import Telemetry

        structure = _structure(seed)
        rng = np.random.default_rng(seed)
        x_int = _feasible_integer_x(structure, rng)
        targets = None
        if with_targets:
            targets = rng.uniform(0.0, 1.5, len(structure.jobs)) * structure.demands
        # Every order over one structure, some twice: the first call
        # builds the structure's tables and the later ones read them, so
        # no order may leave them changed for the next.
        for order in ("deficit_first", "paper", "random", "deficit_first",
                      "paper"):
            expected, visited, grants = _ref_greedy_adjust(
                structure, x_int, order, targets, cap_at_target,
                np.random.default_rng(seed),
            )
            with Telemetry() as telemetry:
                x = lpdar_mod.greedy_adjust(
                    structure, x_int, order=order, targets=targets,
                    cap_at_target=cap_at_target,
                    rng=np.random.default_rng(seed),
                )
            (record,) = telemetry.records_of("greedy_adjust")
            assert _same(x, expected), order
            assert record["visited_triples"] == visited
            assert record["grants"] == grants


# ----------------------------------------------------------------------
# The arrays HiGHS loads
# ----------------------------------------------------------------------
class TestHighsInputs:
    @SETTINGS
    @given(seed=seeds, alphas=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0]),
                                       min_size=1, max_size=4))
    def test_every_family_loads_the_reference_arrays(self, seed, alphas):
        structure = _structure(seed)
        _assert_same_inputs(
            _capture_highs_inputs(build_stage1_lp(structure)),
            _ref_highs_inputs(_ref_build_stage1_lp(structure)),
        )
        zstar = solve_stage1(structure).zstar
        # The Remark-1 ladder: repeated alphas over one structure reuse
        # its cached rows, objective and form.
        for alpha in alphas:
            _assert_same_inputs(
                _capture_highs_inputs(build_stage2_lp(structure, zstar, alpha)),
                _ref_highs_inputs(_ref_build_stage2_lp(structure, zstar, alpha)),
            )
        weights = np.arange(1.0, len(structure.jobs) + 1.0)
        _assert_same_inputs(
            _capture_highs_inputs(build_stage2_lp(structure, zstar, 0.1, weights)),
            _ref_highs_inputs(_ref_build_stage2_lp(structure, zstar, 0.1, weights)),
        )
        for _ in range(2):
            _assert_same_inputs(
                _capture_highs_inputs(ret_mod.build_subret_lp(structure)),
                _ref_highs_inputs(_ref_build_subret_lp(structure)),
            )

    @SETTINGS
    @given(
        lower=st.one_of(st.floats(-5, 5), st.just(-np.inf)),
        span=st.one_of(st.floats(0, 5), st.just(np.inf)),
        vector=st.booleans(),
    )
    def test_bounds_arrays(self, lower, span, vector):
        n = 4
        upper = span if lower == -np.inf else lower + span
        if vector:
            lower = np.full(n, lower)
            upper = np.array([upper, np.inf, upper, upper])
        problem = LinearProgram(objective=np.ones(n), lower=lower, upper=upper)
        for new, ref in zip(problem.bounds_arrays(), _ref_bounds_arrays(problem)):
            assert _same(new, ref)


# ----------------------------------------------------------------------
# linprog's post-solve check
# ----------------------------------------------------------------------
TOL = solver._FEASIBILITY_TOL
special = st.sampled_from(
    [0.0, -0.0, TOL, -TOL, np.nextafter(TOL, 1), np.nextafter(-TOL, -1),
     1.0, -1.0, np.nan, np.inf, -np.inf]
)
values = st.one_of(special, st.floats(-2.0, 2.0))


class TestLinprogCheck:
    @settings(max_examples=400, deadline=None)
    @given(
        x=st.lists(values, min_size=0, max_size=4),
        row_value=st.lists(values, min_size=0, max_size=5),
        b=st.lists(st.sampled_from([0.0, 1.0, TOL, -TOL, 2.0]), min_size=5,
                   max_size=5),
        m_ub=st.integers(0, 5),
        objective=st.sampled_from([0.0, 1.5, np.nan, np.inf]),
        lo=st.sampled_from([0.0, -1.0, -np.inf, TOL]),
        hi=st.sampled_from([np.inf, 1.0, 0.0]),
    )
    def test_same_verdict(self, x, row_value, b, m_ub, objective, lo, hi):
        assume(lo <= hi)
        m = len(row_value)
        m_ub = min(m_ub, m)
        run = HighsRun(solver._MODEL.kOptimal, "", x=np.array(x, dtype=float),
                       row_value=np.array(row_value, dtype=float),
                       objective=objective)
        b_ub, b_eq = np.array(b[:m_ub]), np.array(b[m_ub:m])
        lo_v, hi_v = np.full(len(x), lo), np.full(len(x), hi)
        expected = _ref_passes_linprog_check(run, lo_v, hi_v, b_ub, b_eq)
        # Scalar bounds (what every assembled LP passes) and vectors.
        assert solver._passes_linprog_check(run, lo, hi, b_ub, b_eq) is expected
        assert solver._passes_linprog_check(run, lo_v, hi_v, b_ub, b_eq) is expected


# ----------------------------------------------------------------------
# LinearProgram's rejections
# ----------------------------------------------------------------------
def _outcome(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return None


A = sp.csr_matrix(np.ones((2, 3)))
BAD_PROBLEMS = [
    dict(objective=np.ones((2, 2))),
    dict(objective=[1.0, np.nan, 0.0]),
    dict(objective=[1.0, np.inf, 0.0]),
    dict(objective=np.ones(3), a_ub=A),
    dict(objective=np.ones(3), b_eq=[1.0, 2.0]),
    dict(objective=np.ones(3), a_ub=A, b_ub=np.ones((2, 1))),
    dict(objective=np.ones(3), a_ub=A, b_ub=[1.0, np.nan]),
    dict(objective=np.ones(3), a_eq=A, b_eq=[np.inf, 1.0]),
    dict(objective=np.ones(3), a_ub=A, b_ub=[1.0, 2.0, 3.0]),
    dict(objective=np.ones(4), a_ub=A, b_ub=[1.0, 2.0]),
    dict(objective=np.ones(3), a_ub=sp.csr_matrix(np.ones((1, 3))), b_ub=5.0),
    dict(objective=np.ones(3), a_ub=A, b_ub=5.0),
    dict(objective=np.ones(3), lower=np.nan),
    dict(objective=np.ones(3), upper=np.nan),
    dict(objective=np.ones(3), lower=np.inf),
    dict(objective=np.ones(3), upper=-np.inf),
    dict(objective=np.ones(3), lower=2, upper=1),
    dict(objective=np.ones(3), lower=[0.0, np.nan, 0.0]),
    dict(objective=np.ones(3), lower=[0.0, np.inf, 0.0]),
    dict(objective=np.ones(3), upper=[1.0, -np.inf, 1.0]),
    dict(objective=np.ones(3), lower=[0.0, 2.0, 0.0], upper=1.0),
    dict(objective=np.ones(3), lower=-np.inf, upper=np.inf),
    dict(objective=np.ones(3), lower=np.float64(1.0), upper=1),
]


class TestLinearProgramRejections:
    @pytest.mark.parametrize("fields", BAD_PROBLEMS)
    def test_same_exception_and_message(self, fields):
        def new():
            LinearProgram(**fields).bounds_arrays()

        assert _outcome(new) == _outcome(lambda: _ref_validate(**fields))

    @SETTINGS
    @given(
        lower=st.one_of(special, st.lists(special, min_size=3, max_size=3)),
        upper=st.one_of(special, st.lists(special, min_size=3, max_size=3)),
    )
    def test_bounds_with_special_values(self, lower, upper):
        def new():
            LinearProgram(objective=np.ones(3), lower=lower,
                          upper=upper).bounds_arrays()

        assert _outcome(new) == _outcome(
            lambda: _ref_validate(np.ones(3), lower=lower, upper=upper)
        )


# ----------------------------------------------------------------------
# Recorded runs: every HiGHS load of golden sim 0 and serve 0
# ----------------------------------------------------------------------
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "control_golden.json").read_text()
)


def _install_reference(monkeypatch):
    """Swap every rewritten piece for the code it replaced."""

    def build_capacity_block(self, fragment_cache=None):
        (self.capacity_matrix, self.cap_row_edge, self.cap_row_slice,
         self.cap_rhs) = _ref_capacity_block(self)
        for arr in (self.cap_row_edge, self.cap_row_slice, self.cap_rhs):
            arr.setflags(write=False)

    def build_demand_block(self):
        self.demand_matrix = _ref_demand_block(self)

    def greedy_adjust(structure, x_int, order="paper", targets=None,
                      cap_at_target=False, rng=None):
        return _ref_greedy_adjust(structure, x_int, order, targets,
                                  cap_at_target, rng)[0]

    monkeypatch.setattr(ProblemStructure, "_build_capacity_block",
                        build_capacity_block)
    monkeypatch.setattr(ProblemStructure, "_build_demand_block",
                        build_demand_block)
    monkeypatch.setattr(stage2_mod, "build_stage2_lp", _ref_build_stage2_lp)
    monkeypatch.setattr(ret_mod, "build_subret_lp", _ref_build_subret_lp)
    monkeypatch.setattr(throughput_mod, "build_stage1_lp", _ref_build_stage1_lp)
    monkeypatch.setattr(backend_mod, "solve_highs", _ref_solve_highs)
    monkeypatch.setattr(lpdar_mod, "greedy_adjust", greedy_adjust)


def _recorded(run, monkeypatch, reference: bool) -> list[tuple]:
    """Every ``run_highs`` call of ``run()``, its arrays copied."""
    loads = []
    original = solver.run_highs

    def record(cost, col_lower, col_upper, row_lower, row_upper, rows,
               time_limit=None):
        loads.append(tuple(np.array(a, copy=True) for a in (
            cost, col_lower, col_upper, row_lower, row_upper, *rows)))
        return original(cost, col_lower, col_upper, row_lower, row_upper,
                        rows, time_limit)

    with monkeypatch.context() as patch:
        if reference:
            _install_reference(patch)
        patch.setattr(solver, "run_highs", record)
        run()
    return loads


class TestRecordedGoldenRuns:
    def _compare(self, run, monkeypatch):
        new = _recorded(run, monkeypatch, reference=False)
        ref = _recorded(run, monkeypatch, reference=True)
        assert len(new) == len(ref) > 0
        for new_load, ref_load in zip(new, ref):
            _assert_same_inputs(new_load, ref_load)

    def test_golden_sim_0(self, tmp_path, monkeypatch):
        case = GOLDEN["sim"]["0-reduce"]
        scenario = make_scenario(case["seed"])

        def run():
            Simulation(
                scenario.network, policy=case["policy"], k_paths=3,
                fault_schedule=scenario.fault_schedule,
            ).run(scenario.jobs, horizon=scenario.grid.end * 3.0)

        self._compare(run, monkeypatch)

    def test_golden_serve_0(self, tmp_path, monkeypatch):
        scenario = make_scenario(GOLDEN["serve"]["0"]["seed"])

        def run():
            service = ReservationService(
                scenario.network, fault_schedule=scenario.fault_schedule,
                queue_limit=4096, rate=4096.0,
            )
            asyncio.run(ClosedLoopDriver(service, scenario.jobs,
                                         max_epochs=400).run())
            service.close()

        self._compare(run, monkeypatch)
