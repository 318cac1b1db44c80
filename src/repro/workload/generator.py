"""Random workload generation matching the paper's experimental setup.

The paper's workloads (Section III) draw job sizes uniformly from
[1, 100] GB between uniformly random distinct node pairs; requests arrive
by a random process and each carries a ``[S_i, E_i]`` window.  The
:class:`WorkloadGenerator` reproduces that recipe with every distribution
parameterized, and all randomness flowing through an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable

import numpy as np

from ..errors import ValidationError
from ..network.graph import Network
from .jobs import Job, JobSet

__all__ = [
    "WorkloadConfig",
    "WorkloadGenerator",
    "poisson_arrivals",
    "diurnal_arrivals",
]

Node = Hashable


@dataclass(frozen=True)
class WorkloadConfig:
    """Distribution parameters for random workloads.

    Attributes
    ----------
    size_low, size_high:
        Uniform job-size range, paper default [1, 100] (GB).
    window_slices_low, window_slices_high:
        Inclusive range for the number of slices a job's window spans.
    start_slack_slices:
        Start times are drawn uniformly from
        ``[0, start_slack_slices]`` (in slice units), so jobs stagger.
    slice_length:
        Length of one time slice in time units.
    """

    size_low: float = 1.0
    size_high: float = 100.0
    window_slices_low: int = 2
    window_slices_high: int = 8
    start_slack_slices: int = 4
    slice_length: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.size_low <= self.size_high:
            raise ValidationError(
                f"need 0 < size_low <= size_high, got "
                f"[{self.size_low}, {self.size_high}]"
            )
        if not 1 <= self.window_slices_low <= self.window_slices_high:
            raise ValidationError(
                "need 1 <= window_slices_low <= window_slices_high, got "
                f"[{self.window_slices_low}, {self.window_slices_high}]"
            )
        if self.start_slack_slices < 0:
            raise ValidationError(
                f"start_slack_slices must be >= 0, got {self.start_slack_slices}"
            )
        if self.slice_length <= 0:
            raise ValidationError(
                f"slice_length must be > 0, got {self.slice_length}"
            )

    @property
    def horizon_slices(self) -> int:
        """Slices needed to cover any job this config can generate."""
        return self.start_slack_slices + self.window_slices_high


class WorkloadGenerator:
    """Draws random job sets over a network.

    Parameters
    ----------
    network:
        Source/destination nodes are sampled from this network.
    config:
        Distribution parameters (defaults follow the paper).
    rng, seed:
        Randomness source (mutually exclusive).
    """

    def __init__(
        self,
        network: Network,
        config: WorkloadConfig | None = None,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> None:
        if network.num_nodes < 2:
            raise ValidationError("workload generation needs >= 2 nodes")
        if rng is not None and seed is not None:
            raise ValidationError("pass either rng or seed, not both")
        self.network = network
        self.config = config or WorkloadConfig()
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def od_pair(self) -> tuple[Node, Node]:
        """A uniformly random ordered pair of distinct nodes."""
        nodes = self.network.nodes
        i, j = self.rng.choice(len(nodes), size=2, replace=False)
        return nodes[int(i)], nodes[int(j)]

    def job(self, job_id: int | str, arrival: float = 0.0) -> Job:
        """One random job arriving at ``arrival``.

        The window starts at a slice boundary at or after ``arrival``
        (plus random slack) and spans a random whole number of slices, so
        windows align with the grid exactly as in the paper's experiments.
        """
        cfg = self.config
        src, dst = self.od_pair()
        size = float(self.rng.uniform(cfg.size_low, cfg.size_high))
        first_slice = int(np.ceil(arrival / cfg.slice_length - 1e-12))
        start_slice = first_slice + int(
            self.rng.integers(0, cfg.start_slack_slices + 1)
        )
        span = int(
            self.rng.integers(cfg.window_slices_low, cfg.window_slices_high + 1)
        )
        start = start_slice * cfg.slice_length
        end = (start_slice + span) * cfg.slice_length
        return Job(
            id=job_id,
            source=src,
            dest=dst,
            size=size,
            start=start,
            end=end,
            arrival=float(arrival),
        )

    def jobs(self, num_jobs: int, arrival: float = 0.0) -> JobSet:
        """A batch of ``num_jobs`` random jobs, all arriving at ``arrival``."""
        if num_jobs < 1:
            raise ValidationError(f"num_jobs must be >= 1, got {num_jobs}")
        return JobSet(self.job(i, arrival) for i in range(num_jobs))

    def arrival_stream(
        self, rate: float, horizon: float, id_prefix: str = "job"
    ) -> JobSet:
        """Poisson arrival stream of jobs over ``[0, horizon)``.

        ``rate`` is the expected number of arrivals per time unit.  Job
        ids are ``f"{id_prefix}-{k}"`` in arrival order.
        """
        times = poisson_arrivals(rate, horizon, self.rng)
        return JobSet(
            self.job(f"{id_prefix}-{k}", arrival=float(t))
            for k, t in enumerate(times)
        )

    def scaled_to_load(
        self, num_jobs: int, target_zstar: float, solve_zstar
    ) -> JobSet:
        """Jobs rescaled so the stage-1 throughput is ``target_zstar``.

        ``solve_zstar`` is a callable mapping a :class:`JobSet` to its
        maximum concurrent throughput ``Z*``.  Because ``Z*`` scales
        inversely with uniform demand scaling, a single solve suffices.
        Useful for constructing controlled overload levels.
        """
        if target_zstar <= 0:
            raise ValidationError(
                f"target_zstar must be positive, got {target_zstar}"
            )
        jobs = self.jobs(num_jobs)
        zstar = solve_zstar(jobs)
        if zstar <= 0:
            raise ValidationError(
                "generated workload has Z* = 0 (some job has no usable "
                "window or no path); cannot rescale"
            )
        return jobs.scaled(zstar / target_zstar)


def poisson_arrivals(
    rate: float, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    """Sorted Poisson-process arrival times on ``[0, horizon)``."""
    if rate <= 0:
        raise ValidationError(f"rate must be positive, got {rate}")
    if horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    count = int(rng.poisson(rate * horizon))
    return np.sort(rng.uniform(0.0, horizon, size=count))


def diurnal_arrivals(
    mean_rate: float,
    horizon: float,
    rng: np.random.Generator,
    period: float = 24.0,
    peak_to_trough: float = 4.0,
    peak_time: float = 14.0,
) -> np.ndarray:
    """Inhomogeneous Poisson arrivals with a day/night intensity cycle.

    Research-network demand follows working hours; this samples a
    non-homogeneous Poisson process whose rate is a raised cosine around
    ``mean_rate``:

    .. math:: \\lambda(t) = \\bar\\lambda (1 + a \\cos(2\\pi (t - t_p)/P)),

    with amplitude ``a`` chosen so the peak/trough ratio equals
    ``peak_to_trough``.  Sampled by thinning: draw homogeneous arrivals
    at the peak rate and keep each with probability
    ``lambda(t) / lambda_max``.
    """
    if mean_rate <= 0 or horizon <= 0 or period <= 0:
        raise ValidationError("mean_rate, horizon and period must be positive")
    if peak_to_trough < 1.0:
        raise ValidationError(
            f"peak_to_trough must be >= 1, got {peak_to_trough}"
        )
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    lambda_max = mean_rate * (1.0 + amplitude)
    candidates = poisson_arrivals(lambda_max, horizon, rng)
    if candidates.size == 0:
        return candidates
    intensity = mean_rate * (
        1.0 + amplitude * np.cos(2 * np.pi * (candidates - peak_time) / period)
    )
    keep = rng.uniform(0.0, lambda_max, size=candidates.size) < intensity
    return candidates[keep]
