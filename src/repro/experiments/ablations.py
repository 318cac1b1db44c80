"""Programmatic ablation experiments (this repo's additions to the paper).

Like :mod:`repro.experiments.figures`, each function returns an
:class:`~repro.experiments.figures.ExperimentResult` and registers under
a CLI-runnable name.  These probe the design choices the paper fixes by
fiat: the fairness slack ``alpha``, the allowed-path count, the greedy
visitation order, and the implicit full-wavelength-conversion model.
"""

from __future__ import annotations

from ..core.lpdar import lpdar
from ..core.metrics import jains_fairness_index
from ..core.realization import realize_schedule
from ..core.stage2 import solve_stage2_lp
from ..core.throughput import solve_stage1
from ..engine import build_structure
from ..timegrid import TimeGrid
from ..workload import WorkloadConfig
from .figures import ExperimentResult, _timed
from .setup import calibrated_jobs, random_network, shared_path_sets

__all__ = ["ablation_alpha", "ablation_paths", "ablation_continuity"]

_CONTENDED = WorkloadConfig(
    window_slices_low=2, window_slices_high=4, start_slack_slices=2
)


def ablation_alpha(quick: bool = False, seed: int = 606) -> ExperimentResult:
    """ABL-ALPHA — fairness slack vs throughput and Jain's index."""
    num_nodes = 40 if quick else 100
    num_jobs = 60 if quick else 150
    network = random_network(num_nodes=num_nodes, seed=seed).with_wavelengths(2, 20.0)
    jobs = calibrated_jobs(
        network, num_jobs, seed=seed + 1, target_zstar=0.8, config=_CONTENDED
    )
    paths = shared_path_sets(network, jobs)
    grid = TimeGrid.covering(jobs.max_end())
    structure = build_structure(network, jobs, grid, 4, path_sets=paths)
    zstar = solve_stage1(structure).zstar
    alphas = (0.0, 0.1, 0.4) if quick else (0.0, 0.05, 0.1, 0.2, 0.4)

    def rows():
        for alpha in alphas:
            stage2 = solve_stage2_lp(structure, zstar, alpha=alpha)
            rounded = lpdar(structure, stage2.x)
            z_lp = structure.throughputs(rounded.x_lp)
            yield (
                alpha,
                round((1 - alpha) * zstar, 4),
                round(stage2.objective, 4),
                round(structure.weighted_throughput(rounded.x_lpdar), 4),
                round(jains_fairness_index(z_lp), 4),
            )

    return _timed(
        "ABL-ALPHA",
        f"fairness slack sweep (Z* = {zstar:.3f})",
        ["alpha", "floor", "LP objective", "LPDAR objective", "Jain (LP Z_i)"],
        rows,
    )


def ablation_paths(quick: bool = False, seed: int = 707) -> ExperimentResult:
    """ABL-PATHS — aggregate throughput vs allowed paths per job."""
    num_nodes = 40 if quick else 100
    num_jobs = 40 if quick else 80
    network = random_network(num_nodes=num_nodes, seed=seed).with_wavelengths(4, 20.0)
    from ..workload import WorkloadGenerator

    jobs = WorkloadGenerator(network, _CONTENDED, seed=seed + 1).jobs(num_jobs)
    ks = (1, 2, 4) if quick else (1, 2, 4, 8)

    def rows():
        for k in ks:
            grid = TimeGrid.covering(jobs.max_end())
            structure = build_structure(network, jobs, grid, k_paths=k)
            zstar = solve_stage1(structure).zstar
            aggregate = solve_stage2_lp(structure, zstar, alpha=1.0).objective
            yield (k, round(zstar, 4), round(aggregate, 4))

    return _timed(
        "ABL-PATHS",
        f"allowed paths per job ({num_jobs} jobs, {num_nodes}-node random net)",
        ["k paths", "Z*", "aggregate throughput"],
        rows,
    )


def ablation_continuity(quick: bool = False, seed: int = 1717) -> ExperimentResult:
    """ABL-CONT — strict wavelength continuity vs full conversion."""
    num_jobs = 60 if quick else 120
    network = random_network(num_nodes=40 if quick else 60, seed=seed)
    jobs = calibrated_jobs(
        network, num_jobs, seed=seed + 1, target_zstar=0.9, config=_CONTENDED
    )
    paths = shared_path_sets(network, jobs)
    sweep = (2, 8) if quick else (2, 4, 8, 16)

    def rows():
        for w in sweep:
            net_w = network.with_wavelengths(w, 20.0)
            grid = TimeGrid.covering(jobs.max_end())
            structure = build_structure(net_w, jobs, grid, 4, path_sets=paths)
            zstar = solve_stage1(structure).zstar
            stage2 = solve_stage2_lp(structure, zstar, alpha=0.1)
            rounded = lpdar(structure, stage2.x)
            strict = realize_schedule(structure, rounded.x_lpdar, "strict")
            total = len(strict.grants) + len(strict.failures)
            yield (
                w,
                total,
                round(len(strict.grants) / total, 4) if total else float("nan"),
            )

    return _timed(
        "ABL-CONT",
        "strict wavelength continuity: realizable share of LPDAR grants",
        ["wavelengths/link", "grants", "strict first-fit ok"],
        rows,
    )
