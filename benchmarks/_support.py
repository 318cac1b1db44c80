"""Shared benchmark plumbing: instance builders, timing, JSON trail.

Instance builders live in :mod:`repro.experiments.setup` (re-exported
here so every ``bench_*.py`` file can keep its local ``from _support
import ...`` imports); the harness helpers below used to be duplicated
across ``bench_engine.py``, ``bench_service.py`` and ``conftest.py``
and are now defined once so the fleet benchmark and future suites pick
up the same timing and document conventions:

* :func:`time_best_of` — best-of-N wall timing, returning the result;
* :func:`time_pairs` — two callables timed alternately in one process,
  for gates on a ratio of their wall times;
* :func:`booked_ahead` — workload windows shifted ahead of submission
  (the multi-epoch controller shape used by ENG and the fleet bench);
* :func:`bench_versions` — the ``versions`` stanza every
  ``BENCH_*.json`` document embeds;
* :func:`write_bench_document` — the canonical trailing-newline JSON
  write that ``check_regression.py`` diffs against.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import __version__
from repro.experiments.setup import (  # noqa: F401
    ALPHA,
    TOTAL_LINK_RATE,
    WAVELENGTH_SWEEP,
    ThroughputPoint,
    abilene_network,
    calibrated_jobs,
    random_network,
    shared_path_sets,
    throughput_pipeline,
)
from repro.workload.jobs import JobSet


def time_best_of(fn, repeats: int = 3):
    """(min seconds, last result) over ``repeats`` runs of ``fn``."""
    best, result = float("inf"), None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def time_pairs(first, second, pairs: int):
    """Wall times of ``first`` and ``second`` run alternately, ``pairs`` each.

    Pair ``k`` runs ``first`` then ``second`` when ``k`` is even and the
    other way round when it is odd, so a drift in the host's speed lands
    on both sides of a pair instead of on one whole block of runs.
    Returns ``(first's seconds, second's seconds, first's last result,
    second's last result)``; the two lists are aligned by pair.
    """
    fns = (first, second)
    times: tuple[list[float], list[float]] = ([], [])
    results = [None, None]
    for k in range(max(1, pairs)):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            results[side] = fns[side]()
            times[side].append(time.perf_counter() - t0)
    return times[0], times[1], results[0], results[1]


def booked_ahead(generator, num_jobs: int, arrival_mod: int, lead_slices: int):
    """Jobs submitted on a cycle, windows shifted ``lead_slices`` ahead."""
    jobs = []
    for i in range(num_jobs):
        job = generator.job(i, arrival=float(i % arrival_mod))
        jobs.append(
            replace(job, start=job.start + lead_slices, end=job.end + lead_slices)
        )
    return JobSet(jobs)


def bench_versions(**extra: str) -> dict:
    """The ``versions`` stanza shared by every ``BENCH_*.json``."""
    versions = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": __version__,
    }
    versions.update(extra)
    return versions


def write_bench_document(path: Path, document: dict) -> None:
    """Write a benchmark JSON document the way ``check_regression.py``
    and the committed baselines expect (indent=2, trailing newline)."""
    path.write_text(json.dumps(document, indent=2) + "\n")
