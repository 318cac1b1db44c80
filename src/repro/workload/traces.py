"""Synthetic e-science traffic traces.

The paper motivates the system with e-science workloads — high-energy
physics (HEP) tier transfers, radio astronomy, climate studies — whose
defining features are a few very large flows mixed with many smaller
ones, strong source concentration (detector or archive sites) and
deadline-driven windows.  The real ESnet/Internet2 traces the paper cites
are not publicly available, so this module synthesizes workloads with the
same qualitative structure (documented substitution, see DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from ..errors import ValidationError
from ..network.graph import Network
from .jobs import Job, JobSet

__all__ = ["hep_tier_trace", "climate_ensemble_trace", "mixed_escience_trace"]

Node = Hashable


def _pick_nodes(
    network: Network, count: int, rng: np.random.Generator
) -> list[Node]:
    nodes = list(network.nodes)
    if len(nodes) < count:
        raise ValidationError(
            f"network has {len(nodes)} nodes, need at least {count}"
        )
    idx = rng.choice(len(nodes), size=count, replace=False)
    return [nodes[int(i)] for i in idx]


def hep_tier_trace(
    network: Network,
    num_tier2: int = 4,
    transfers_per_site: int = 3,
    dataset_size: float = 500.0,
    window_slices: int = 10,
    slice_length: float = 1.0,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> JobSet:
    """HEP-style fan-out: one Tier-1 archive pushes datasets to Tier-2 sites.

    A single source node (the Tier-1 center) sends ``transfers_per_site``
    large replicas to each of ``num_tier2`` destination sites.  Dataset
    sizes are log-normally jittered around ``dataset_size``, and every
    transfer must land within ``window_slices`` slices — the canonical
    "data taking run must be replicated before the next run" deadline.
    """
    if rng is not None and seed is not None:
        raise ValidationError("pass either rng or seed, not both")
    rng = rng if rng is not None else np.random.default_rng(seed)
    sites = _pick_nodes(network, num_tier2 + 1, rng)
    tier1, tier2s = sites[0], sites[1:]
    jobs = JobSet()
    k = 0
    for site in tier2s:
        for _ in range(transfers_per_site):
            size = float(dataset_size * rng.lognormal(mean=0.0, sigma=0.3))
            start_slice = int(rng.integers(0, max(window_slices // 2, 1)))
            jobs.add(
                Job(
                    id=f"hep-{k}",
                    source=tier1,
                    dest=site,
                    size=size,
                    start=start_slice * slice_length,
                    end=(start_slice + window_slices) * slice_length,
                    arrival=0.0,
                )
            )
            k += 1
    return jobs


def climate_ensemble_trace(
    network: Network,
    num_sites: int = 5,
    rounds: int = 3,
    output_size: float = 80.0,
    round_slices: int = 4,
    slice_length: float = 1.0,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> JobSet:
    """Climate-model ensemble: periodic all-to-one result collection.

    ``num_sites`` compute sites each ship a model-output chunk to a
    central analysis site at the end of every simulation round.  Round
    ``r`` produces transfers windowed to
    ``[r * round_slices, (r + 1) * round_slices]`` slices, giving the
    regular periodic load pattern typical of coupled-model campaigns.
    """
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    if rng is not None and seed is not None:
        raise ValidationError("pass either rng or seed, not both")
    rng = rng if rng is not None else np.random.default_rng(seed)
    sites = _pick_nodes(network, num_sites + 1, rng)
    hub, computes = sites[0], sites[1:]
    jobs = JobSet()
    k = 0
    for r in range(rounds):
        start = r * round_slices * slice_length
        end = (r + 1) * round_slices * slice_length
        for site in computes:
            size = float(output_size * rng.uniform(0.7, 1.3))
            jobs.add(
                Job(
                    id=f"clim-{k}",
                    source=site,
                    dest=hub,
                    size=size,
                    start=start,
                    end=end,
                    arrival=start,
                )
            )
            k += 1
    return jobs


def mixed_escience_trace(
    network: Network,
    num_bulk: int = 6,
    num_small: int = 18,
    bulk_size: float = 400.0,
    small_size_high: float = 50.0,
    horizon_slices: int = 12,
    slice_length: float = 1.0,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> JobSet:
    """Heavy-tailed mix: a few huge archival flows plus many small ones.

    This mirrors the ESnet observation the paper cites (reference [8])
    that a small number of very large science flows dominate total bytes.
    Bulk jobs get wide windows; small jobs get tight 2–4 slice windows.
    """
    if rng is not None and seed is not None:
        raise ValidationError("pass either rng or seed, not both")
    rng = rng if rng is not None else np.random.default_rng(seed)
    nodes = list(network.nodes)
    if len(nodes) < 2:
        raise ValidationError("network needs >= 2 nodes")
    jobs = JobSet()

    def random_pair() -> tuple[Node, Node]:
        i, j = rng.choice(len(nodes), size=2, replace=False)
        return nodes[int(i)], nodes[int(j)]

    for k in range(num_bulk):
        src, dst = random_pair()
        span = int(rng.integers(max(horizon_slices // 2, 1), horizon_slices + 1))
        start_slice = int(rng.integers(0, horizon_slices - span + 1))
        jobs.add(
            Job(
                id=f"bulk-{k}",
                source=src,
                dest=dst,
                size=float(bulk_size * rng.lognormal(0.0, 0.25)),
                start=start_slice * slice_length,
                end=(start_slice + span) * slice_length,
                arrival=0.0,
            )
        )
    for k in range(num_small):
        src, dst = random_pair()
        span = int(rng.integers(2, min(5, horizon_slices + 1)))
        start_slice = int(rng.integers(0, horizon_slices - span + 1))
        jobs.add(
            Job(
                id=f"small-{k}",
                source=src,
                dest=dst,
                size=float(rng.uniform(1.0, small_size_high)),
                start=start_slice * slice_length,
                end=(start_slice + span) * slice_length,
                arrival=0.0,
            )
        )
    return jobs
