"""The HiGHS backend answers exactly as ``scipy.optimize.linprog`` would.

The backend drives SciPy's bundled HiGHS through its binding directly;
``linprog(method="highs")`` runs the same HiGHS build, so it stays here
as the test oracle.  For every LP family the pipeline solves (stage 1,
stage 2, SUB-RET and admission probes, on seeded fuzz scenarios) and for
a few hand-built edge cases, the backend's point, objective, iteration
count and duals must equal linprog's bit for bit, after the same sign
flip and clamp, and a failing LP must raise the same exception type.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from repro import (
    InfeasibleProblemError,
    LinearProgram,
    LPSolution,
    Scheduler,
    SolverError,
    UnboundedProblemError,
    admit_max_prefix,
    solve_ret,
)
from repro.engine.backend import HighsBackend
from repro.verify.fuzz import make_scenario

#: Fuzz seeds whose pipelines supply the recorded LPs.
SEEDS = range(12)


def linprog_reference(problem: LinearProgram) -> LPSolution:
    """The answer ``linprog(method="highs")`` gives, in the backend's terms."""
    lo, hi = problem.bounds_arrays()
    result = linprog(
        -problem.objective if problem.maximize else problem.objective,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=np.column_stack([lo, hi]),
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleProblemError()
    if result.status == 3:
        raise UnboundedProblemError()
    if result.status != 0:
        raise SolverError(result.message, status=result.status)
    x = np.minimum(np.maximum(result.x, lo), hi)
    objective = float(result.fun)
    return LPSolution(
        x=x,
        objective=-objective if problem.maximize else objective,
        iterations=int(result.nit),
        ineq_duals=-result.ineqlin.marginals,
        eq_duals=-result.eqlin.marginals,
    )


def _outcome(solve, problem):
    """The solution, or the type of the solver error raised instead."""
    try:
        return solve(problem)
    except SolverError as exc:
        return type(exc)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_same_as_linprog(problem: LinearProgram) -> None:
    ours = _outcome(HighsBackend().solve, problem)
    reference = _outcome(linprog_reference, problem)
    if isinstance(reference, type):
        assert ours is reference
        return
    assert not isinstance(ours, type), f"backend raised {ours.__name__}"
    assert _bits(ours.x) == _bits(reference.x)
    assert _bits(ours.objective) == _bits(reference.objective)
    assert ours.iterations == reference.iterations
    assert _bits(ours.ineq_duals) == _bits(reference.ineq_duals)
    assert _bits(ours.eq_duals) == _bits(reference.eq_duals)


@pytest.fixture(scope="module")
def recorded() -> dict[str, list[LinearProgram]]:
    """Every LP the backend saw while the fuzz pipelines ran, by label."""
    by_label: dict[str, list[LinearProgram]] = {}
    real = HighsBackend.solve

    def recording(self, problem, *, label=None, **kwargs):
        by_label.setdefault(label, []).append(problem)
        return real(self, problem, label=label, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HighsBackend, "solve", recording)
        for seed in SEEDS:
            scenario = make_scenario(seed, allow_faults=False)
            Scheduler(scenario.network).schedule(scenario.jobs, scenario.grid)
            solve_ret(scenario.network, scenario.jobs, b_max=4.0, delta=0.5)
            admit_max_prefix(
                scenario.network, scenario.jobs, scenario.grid, threshold=2.0
            )
    return by_label


@pytest.mark.parametrize("label", ["stage1", "stage2", "subret"])
def test_pipeline_lps_match_linprog(recorded, label):
    problems = recorded.get(label, [])
    assert len(problems) >= len(SEEDS)
    for problem in problems:
        assert_same_as_linprog(problem)


def test_recorded_families_cover_both_blocks_and_infeasible_probes(recorded):
    stage1 = recorded["stage1"]
    assert all(p.a_ub is not None and p.a_eq is not None for p in stage1)
    # Admission probes solve stage-1 LPs of job prefixes: more of them
    # than there are scenarios, since each binary search probes twice.
    assert len(stage1) > 2 * len(SEEDS)
    outcomes = [_outcome(linprog_reference, p) for p in recorded["subret"]]
    assert InfeasibleProblemError in outcomes  # RET's too-short extensions


def _lp(**kwargs) -> LinearProgram:
    kwargs.setdefault("objective", np.array([1.0, 1.0]))
    return LinearProgram(**kwargs)


EDGE_CASES = {
    "infeasible": _lp(
        a_ub=sp.csr_matrix([[1.0, 1.0]]), b_ub=np.array([-1.0])
    ),
    "unbounded": _lp(
        objective=np.array([-1.0, 0.0]),
        a_ub=sp.csr_matrix([[0.0, 1.0]]),
        b_ub=np.array([2.0]),
    ),
    "maximize": _lp(
        objective=np.array([1.0, 2.0]),
        a_ub=sp.csr_matrix([[1.0, 1.0], [1.0, 3.0]]),
        b_ub=np.array([4.0, 6.0]),
        a_eq=sp.csr_matrix([[1.0, -1.0]]),
        b_eq=np.array([0.5]),
        upper=5.0,
        maximize=True,
    ),
    "dense-blocks": _lp(
        objective=np.array([-1.0, -1.0, 0.5]),
        a_ub=np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]]),
        b_ub=np.array([3.0, 2.0]),
        a_eq=np.array([[1.0, 1.0, 1.0]]),
        b_eq=np.array([2.5]),
    ),
    "dense-and-sparse": _lp(
        objective=np.array([2.0, -1.0]),
        a_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([5.0]),
        a_eq=sp.coo_matrix([[1.0, 0.0]]),
        b_eq=np.array([1.0]),
        lower=np.array([0.0, -2.0]),
    ),
    "duplicate-entries": _lp(
        objective=np.array([-1.0, 9.0, -2.0, 9.0, 0.5, 9.0])[::2],
        a_ub=sp.csr_matrix(
            (
                np.array([1.0, 0.5, 0.5, 2.0]),
                np.array([0, 2, 2, 1], dtype=np.int64),
                np.array([0, 3, 4], dtype=np.int64),
            ),
            shape=(2, 3),
        ),
        b_ub=np.array([3.0, 2.0]),
    ),
    "empty-ub-block": _lp(
        objective=np.array([1.0, -1.0]),
        a_ub=sp.csr_matrix((0, 2)),
        b_ub=np.empty(0),
        a_eq=sp.csr_matrix([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
    ),
    "bounds-only": _lp(
        objective=np.array([1.0, -1.0]), lower=-1.0, upper=3.0
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_matches_linprog(name):
    assert_same_as_linprog(EDGE_CASES[name])


def test_edge_cases_raise_the_modelling_errors():
    backend = HighsBackend()
    with pytest.raises(InfeasibleProblemError):
        backend.solve(EDGE_CASES["infeasible"])
    with pytest.raises(UnboundedProblemError):
        backend.solve(EDGE_CASES["unbounded"])
