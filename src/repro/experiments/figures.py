"""Programmatic paper-figure experiments.

Each function reproduces one artifact of the paper's evaluation
(Section III) and returns an :class:`ExperimentResult` — a structured
row set plus a rendered table — so figures can be regenerated from a
script, the CLI (``python -m repro experiment fig1``), or the benchmark
harness, all sharing one implementation.

Every experiment takes ``quick=True`` for a scaled-down run (seconds
instead of a minute) that preserves the qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..analysis.reporting import Table
from ..core.lpdar import discretize, greedy_adjust
from ..core.ret import solve_ret
from ..core.stage2 import solve_stage2_lp
from ..core.throughput import solve_stage1
from ..errors import ValidationError
from ..engine import build_structure
from ..obs import Telemetry
from ..timegrid import TimeGrid
from ..workload import WorkloadConfig, WorkloadGenerator
from .setup import (
    WAVELENGTH_SWEEP,
    abilene_network,
    calibrated_jobs,
    random_network,
    shared_path_sets,
    throughput_pipeline,
)

__all__ = [
    "ExperimentResult",
    "fig1_random_throughput",
    "fig2_abilene_throughput",
    "fig3_computation_time",
    "fig4_ret_end_time",
    "jobs_finished",
    "EXPERIMENTS",
    "run_experiment",
]

#: Workload shape shared by the throughput experiments (tight windows
#: create the contention that makes LP solutions fractional).
_CONTENDED = WorkloadConfig(
    window_slices_low=2, window_slices_high=4, start_slack_slices=2
)

_RET_CONFIG = WorkloadConfig(
    size_low=40.0,
    size_high=200.0,
    window_slices_low=2,
    window_slices_high=5,
    start_slack_slices=2,
)


@dataclass(frozen=True)
class ExperimentResult:
    """One regenerated paper artifact.

    Attributes
    ----------
    experiment_id:
        Short id matching DESIGN.md's experiment index (e.g. ``FIG1``).
    title:
        Human-readable description (printed above the table).
    columns:
        Column names of ``rows``.
    rows:
        The series the paper's figure plots, one tuple per sweep point.
    seconds:
        Wall-clock time the experiment took.
    """

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    seconds: float

    def table(self) -> Table:
        """Rendered ASCII table of the result."""
        table = Table(list(self.columns), title=f"{self.experiment_id} — {self.title}")
        for row in self.rows:
            table.add_row(list(row))
        return table

    def column(self, name: str) -> list:
        """One column of ``rows`` by name."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ValidationError(
                f"no column {name!r}; have {list(self.columns)}"
            ) from None
        return [row[idx] for row in self.rows]


def _timed(experiment_id: str, title: str, columns, build_rows) -> ExperimentResult:
    telemetry = Telemetry()
    with telemetry.span("experiment") as span:
        rows = tuple(tuple(r) for r in build_rows())
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        columns=tuple(columns),
        rows=rows,
        seconds=span.elapsed,
    )


def fig1_random_throughput(
    quick: bool = False, seed: int = 101
) -> ExperimentResult:
    """Fig. 1 — LP/LPD/LPDAR throughput on a 100-node random network."""
    num_jobs = 120 if quick else 350
    num_nodes = 60 if quick else 100
    network = random_network(num_nodes=num_nodes, seed=seed)
    jobs = calibrated_jobs(
        network, num_jobs, seed=seed + 1, target_zstar=0.9, config=_CONTENDED
    )
    paths = shared_path_sets(network, jobs)
    sweep = WAVELENGTH_SWEEP[:3] if quick else WAVELENGTH_SWEEP

    def rows():
        for w in sweep:
            p = throughput_pipeline(network, jobs, w, path_sets=paths)
            yield (w, round(p.zstar, 4), 1.0, round(p.lpd_ratio, 4),
                   round(p.lpdar_ratio, 4))

    return _timed(
        "FIG1",
        f"normalized throughput, random network ({num_nodes} nodes, "
        f"{network.num_link_pairs} link pairs, {num_jobs} jobs)",
        ["wavelengths/link", "Z*", "LP", "LPD/LP", "LPDAR/LP"],
        rows,
    )


def fig2_abilene_throughput(
    quick: bool = False, seed: int = 202
) -> ExperimentResult:
    """Fig. 2 — LP/LPD/LPDAR throughput on the Abilene network."""
    num_jobs = 30 if quick else 60
    network = abilene_network()
    jobs = calibrated_jobs(
        network, num_jobs, seed=seed, target_zstar=0.9, config=_CONTENDED
    )
    paths = shared_path_sets(network, jobs)
    sweep = WAVELENGTH_SWEEP[:3] if quick else WAVELENGTH_SWEEP

    def rows():
        for w in sweep:
            p = throughput_pipeline(network, jobs, w, path_sets=paths)
            yield (w, round(p.zstar, 4), 1.0, round(p.lpd_ratio, 4),
                   round(p.lpdar_ratio, 4))

    return _timed(
        "FIG2",
        f"normalized throughput, Abilene (11 nodes, "
        f"{network.num_link_pairs} link pairs, {num_jobs} jobs)",
        ["wavelengths/link", "Z*", "LP", "LPD/LP", "LPDAR/LP"],
        rows,
    )


def fig3_computation_time(
    quick: bool = False, seed: int = 303
) -> ExperimentResult:
    """Fig. 3 — computation time of LP vs LPD vs LPDAR."""
    network = random_network(
        num_nodes=60 if quick else 100, seed=seed
    ).with_wavelengths(4, 20.0)
    sweep = (50, 100) if quick else (50, 100, 200, 350)

    def rows():
        for num_jobs in sweep:
            jobs = calibrated_jobs(
                network, num_jobs, seed=seed + num_jobs, target_zstar=0.9,
                config=_CONTENDED,
            )
            paths = shared_path_sets(network, jobs)
            grid = TimeGrid.covering(jobs.max_end())
            structure = build_structure(network, jobs, grid, 4, path_sets=paths)
            with Telemetry() as telemetry:
                with telemetry.span("lp"):
                    zstar = solve_stage1(structure).zstar
                    stage2 = solve_stage2_lp(structure, zstar, alpha=0.1)
                with telemetry.span("lpd"):
                    x_lpd = discretize(stage2.x)
                greedy_adjust(structure, x_lpd)
            t_lp = telemetry.seconds("lp")
            t_lpd = t_lp + telemetry.seconds("lpd")
            t_lpdar = t_lpd + telemetry.seconds("greedy_adjust")
            yield (
                num_jobs,
                structure.num_cols,
                round(t_lp, 4),
                round(t_lpd, 4),
                round(t_lpdar, 4),
                round(t_lpdar / t_lp, 4),
            )

    return _timed(
        "FIG3",
        "computation time, random network",
        ["jobs", "variables", "LP (s)", "LPD (s)", "LPDAR (s)", "LPDAR/LP time"],
        rows,
    )


def fig4_ret_end_time(quick: bool = False, seed: int = 404) -> ExperimentResult:
    """Fig. 4 — average end time under RET vs the number of jobs."""
    network = random_network(
        num_nodes=50 if quick else 100, seed=seed
    ).with_wavelengths(2, 20.0)
    sweep = (10, 20) if quick else (10, 20, 30, 40)

    def rows():
        for num_jobs in sweep:
            jobs = WorkloadGenerator(
                network, _RET_CONFIG, seed=seed + num_jobs
            ).jobs(num_jobs)
            result = solve_ret(network, jobs, k_paths=4, b_max=20.0, delta=0.1)
            yield (
                num_jobs,
                round(result.b_final, 4),
                round(result.average_end_time("lp"), 3),
                round(result.average_end_time("lpdar"), 3),
                round(result.fraction_finished("lpdar"), 4),
            )

    return _timed(
        "FIG4",
        "average end time under RET (slices), random network",
        ["jobs", "b_final", "avg end LP", "avg end LPDAR", "LPDAR finished"],
        rows,
    )


def jobs_finished(quick: bool = False, seed: int = 505) -> ExperimentResult:
    """§III-B.1 — fraction of jobs finished at Algorithm 2's extension."""
    network = random_network(
        num_nodes=50 if quick else 100, seed=seed
    ).with_wavelengths(2, 20.0)
    seeds = (1001, 1002) if quick else (1001, 1002, 1003, 1004)

    def rows():
        for k, instance_seed in enumerate(seeds):
            jobs = WorkloadGenerator(
                network, _RET_CONFIG, seed=instance_seed
            ).jobs(25)
            result = solve_ret(network, jobs, k_paths=4, b_max=20.0, delta=0.1)
            yield (
                k,
                round(result.b_final, 4),
                round(result.fraction_finished("lp"), 4),
                round(result.fraction_finished("lpd"), 4),
                round(result.fraction_finished("lpdar"), 4),
            )

    return _timed(
        "TXT-FIN",
        "fraction of jobs finished at Algorithm 2's extension",
        ["instance", "b_final", "LP finished", "LPD finished", "LPDAR finished"],
        rows,
    )


#: Registry of runnable experiments by id (used by the CLI).  Ablations
#: from :mod:`repro.experiments.ablations` register themselves here on
#: import (see repro/experiments/__init__.py).
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_random_throughput,
    "fig2": fig2_abilene_throughput,
    "fig3": fig3_computation_time,
    "fig4": fig4_ret_end_time,
    "jobs-finished": jobs_finished,
}


def run_experiment(name: str, quick: bool = False) -> ExperimentResult:
    """Run one registered experiment by name."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {name!r}; pick from {sorted(EXPERIMENTS)}"
        ) from None
    return fn(quick=quick)


def fleet_experiment(name: str, quick: bool = False) -> ExperimentResult:
    """Fleet-task entry point: run one experiment cell in a worker.

    Registered as the built-in ``experiment`` task in
    :mod:`repro.parallel.fleet`; the indirection keeps the fleet module
    free of an import-time dependency on the experiment registry.
    """
    return run_experiment(name, quick=quick)
