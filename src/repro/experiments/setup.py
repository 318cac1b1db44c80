"""Shared instance builders for the paper-reproduction experiments.

Every benchmark reproduces a figure/table of the paper's Section III.
The experimental recipe is centralized here:

* random networks: Waxman, 100 nodes, average degree 4 (~200 link
  pairs), 20 Gbps links (paper Section III);
* Abilene: 11 nodes, 20 link pairs, 20 Gbps links;
* job sizes uniform [1, 100] GB between random distinct node pairs;
* workloads rescaled (via stage-1 scale invariance) to a controlled
  load level ``Z*`` so overload severity is comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.lpdar import lpdar
from ..core.stage2 import solve_stage2_lp
from ..core.throughput import solve_stage1
from ..engine import build_structure
from ..network import abilene, waxman_network
from ..network.graph import Network
from ..network.paths import build_path_sets
from ..timegrid import TimeGrid
from ..workload import WorkloadConfig, WorkloadGenerator
from ..workload.jobs import JobSet

#: Total per-link rate held constant across wavelength sweeps (Figs. 1-2).
TOTAL_LINK_RATE = 20.0

#: The paper's wavelength-count sweep for Figs. 1 and 2.
WAVELENGTH_SWEEP = (2, 4, 8, 16, 32)

#: Fairness parameter used throughout the paper's evaluation.
ALPHA = 0.1


def random_network(num_nodes: int = 100, seed: int = 0) -> Network:
    """The paper's random test network: Waxman, average degree 4."""
    return waxman_network(
        num_nodes,
        avg_degree=4,
        capacity=1,
        wavelength_rate=TOTAL_LINK_RATE,
        seed=seed,
    )


def abilene_network() -> Network:
    """The paper's Abilene instance: 11 nodes, 20 link pairs."""
    return abilene(capacity=1, wavelength_rate=TOTAL_LINK_RATE, extended=True)


def calibrated_jobs(
    network: Network,
    num_jobs: int,
    seed: int,
    target_zstar: float = 0.9,
    k_paths: int = 4,
    config: WorkloadConfig | None = None,
) -> JobSet:
    """Random paper-style jobs rescaled so stage-1 ``Z*`` equals the target.

    ``Z*`` scales inversely with a uniform demand scaling, so a single
    stage-1 solve calibrates the load exactly.  Because holding the total
    link rate constant makes ``Z*`` invariant to the wavelength split,
    one calibration serves an entire Figs. 1/2 sweep.
    """
    generator = WorkloadGenerator(network, config, seed=seed)
    jobs = generator.jobs(num_jobs)
    grid = TimeGrid.covering(jobs.max_end())
    structure = build_structure(network, jobs, grid, k_paths)
    zstar = solve_stage1(structure).zstar
    if zstar <= 0:
        raise RuntimeError("calibration workload has Z* = 0")
    return jobs.scaled(zstar / target_zstar)


@dataclass(frozen=True)
class ThroughputPoint:
    """One sweep point of the Figs. 1/2 experiment."""

    wavelengths: int
    zstar: float
    lp: float
    lpd: float
    lpdar: float

    @property
    def lpd_ratio(self) -> float:
        return self.lpd / self.lp

    @property
    def lpdar_ratio(self) -> float:
        return self.lpdar / self.lp


def throughput_pipeline(
    base_network: Network,
    jobs: JobSet,
    wavelengths: int,
    k_paths: int = 4,
    alpha: float = ALPHA,
    path_sets=None,
) -> ThroughputPoint:
    """Stage 1 -> stage 2 LP -> LPDAR at one wavelength count.

    The link rate stays at ``TOTAL_LINK_RATE`` while the wavelength count
    varies, exactly as in Figs. 1 and 2 ("different numbers of
    wavelengths on each link while holding the capacity of each link
    constant").
    """
    network = base_network.with_wavelengths(wavelengths, TOTAL_LINK_RATE)
    grid = TimeGrid.covering(jobs.max_end())
    structure = build_structure(
        network, jobs, grid, k_paths, path_sets=path_sets
    )
    zstar = solve_stage1(structure).zstar
    stage2 = solve_stage2_lp(structure, zstar, alpha=alpha)
    rounded = lpdar(structure, stage2.x)
    wt = structure.weighted_throughput
    return ThroughputPoint(
        wavelengths=wavelengths,
        zstar=zstar,
        lp=wt(rounded.x_lp),
        lpd=wt(rounded.x_lpd),
        lpdar=wt(rounded.x_lpdar),
    )


def shared_path_sets(network: Network, jobs: JobSet, k_paths: int = 4):
    """Path sets reused across a sweep (paths ignore capacities/rates)."""
    return build_path_sets(network, jobs.od_pairs(), k_paths)
