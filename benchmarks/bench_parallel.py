"""PAR — fleet fan-out: speedup with proof of equality.

The parallel layer (``docs/parallel.md``) promises a process-pool
**fleet** that makes seeded sweeps faster on multi-core machines
without changing a single result.  Speed without equality would be
worthless here — a faster sweep that silently changes reports is a
bug, not a win — so the benchmark gates correctness unconditionally
and speed only where the hardware can deliver it:

* **Fleet fuzz sweep** — ``FUZZ_COUNT`` seeded scenarios through
  ``run_fuzz`` with ``--jobs 1`` and with ``--jobs FLEET_JOBS``.  The
  rendered per-scenario reports must be byte-identical (seed-stride
  determinism), every scenario must pass its oracles, and — when the
  runner exposes at least ``MIN_GATE_CORES`` cores — the fleet pass
  must be at least ``TARGET_SPEEDUP``× faster.  On smaller machines
  the measured speedup is still recorded (with ``effective_cores`` so
  a reader can interpret it) but not hard-gated: a single-core box
  physically cannot show a parallel win, and pretending otherwise
  would just teach people to ignore the gate.
* **Paired fleet fuzz sweep** — ``PAIRED_COUNT`` scenarios with
  ``min(4, cores)`` workers, timed against the sequential sweep as
  ``PAIRS`` interleaved pairs (``_support.time_pairs``), so a drift in
  the host's speed lands on both sides of a pair.  It is big enough
  for pool start-up not to dominate, and asks for no more workers than
  there are cores, so a 2-core box can decide it: the median paired
  ratio must reach ``PAIRED_FLOOR`` on at least ``PAIRED_MIN_CORES``
  cores.  Below that the case records a skip as its result.

Results go to ``BENCH_parallel.json`` at the repo root; CI diffs the
document against the committed baseline (``check_regression.py``) and
uploads it as an artifact.  Runs under pytest (the CI gate) or as a
plain script::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis import Table
from repro.verify.fuzz import run_fuzz

from _support import bench_versions, time_best_of, time_pairs, write_bench_document

SEED = 1009
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: ISSUE 8 acceptance target: the 4-worker fleet fuzz sweep must beat
#: the sequential sweep by this factor — enforced as a hard gate only
#: when the runner actually has ``MIN_GATE_CORES`` cores to spend.
TARGET_SPEEDUP = 1.8
MIN_GATE_CORES = 4
FLEET_JOBS = 4
FUZZ_COUNT = 24

#: The paired case: scenarios, interleaved pairs and its floor on the
#: median paired ratio, fixed before it was first measured (a 2-core
#: box measured 1.7-1.9x at 96 scenarios with 2 workers).
PAIRED_COUNT = 96
PAIRS = 9
PAIRED_FLOOR = 1.3
PAIRED_MIN_CORES = 2
PAIRED_MAX_JOBS = 4

#: Timing repeats (best-of); the fuzz sweep is deterministic, so
#: repeats only tighten the wall-clock estimate.
REPEATS = 2

#: Document-level regression tolerance.  Speedup ratios here depend on
#: the runner's core count (a 1-core baseline vs a 4-core fresh run and
#: vice versa), so the band is much looser than the engine bench's
#: same-process ratios.
TOLERANCE = 0.5

def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _case_fleet_fuzz() -> dict:
    """Sequential vs 4-worker fuzz sweep; reports must be identical."""
    serial_s, serial = time_best_of(
        lambda: run_fuzz(FUZZ_COUNT, seed=SEED, jobs=1), repeats=REPEATS
    )
    fleet_s, fleet = time_best_of(
        lambda: run_fuzz(FUZZ_COUNT, seed=SEED, jobs=FLEET_JOBS), repeats=REPEATS
    )
    cores = _effective_cores()
    return {
        "speedup": round(serial_s / fleet_s, 3),
        "serial_seconds": round(serial_s, 4),
        "fleet_seconds": round(fleet_s, 4),
        "metrics": {
            "count": FUZZ_COUNT,
            "jobs": FLEET_JOBS,
            "effective_cores": cores,
            "gated": cores >= MIN_GATE_CORES,
            "target_speedup": TARGET_SPEEDUP,
            "serial_ok": serial.ok,
            "fleet_ok": fleet.ok,
            "reports_identical": serial.render() == fleet.render(),
        },
    }


def _case_fleet_fuzz_paired() -> dict:
    """Sequential vs ``min(4, cores)``-worker sweep, in interleaved pairs."""
    cores = _effective_cores()
    metrics = {
        "count": PAIRED_COUNT,
        "pairs": PAIRS,
        "effective_cores": cores,
        "floor": PAIRED_FLOOR,
    }
    if cores < PAIRED_MIN_CORES:
        return {
            "skipped": f"needs at least {PAIRED_MIN_CORES} cores, has {cores}",
            "metrics": metrics,
        }
    jobs = min(PAIRED_MAX_JOBS, cores)
    serial_s, fleet_s, serial, fleet = time_pairs(
        lambda: run_fuzz(PAIRED_COUNT, seed=SEED, jobs=1),
        lambda: run_fuzz(PAIRED_COUNT, seed=SEED, jobs=jobs),
        PAIRS,
    )
    ratios = sorted(s / f for s, f in zip(serial_s, fleet_s))
    metrics.update(
        jobs=jobs,
        paired_ratios=[round(r, 3) for r in ratios],
        serial_ok=serial.ok,
        fleet_ok=fleet.ok,
        reports_identical=serial.render() == fleet.render(),
    )
    return {
        "speedup": round(ratios[len(ratios) // 2], 3),
        "serial_seconds": round(sorted(serial_s)[len(serial_s) // 2], 4),
        "fleet_seconds": round(sorted(fleet_s)[len(fleet_s) // 2], 4),
        "metrics": metrics,
    }


def run_parallel_bench() -> dict:
    """Run all cases and return the ``BENCH_parallel.json`` document."""
    return {
        "schema": 1,
        "suite": "parallel-speedup",
        "tolerance": TOLERANCE,
        "target_fleet_speedup": TARGET_SPEEDUP,
        "min_gate_cores": MIN_GATE_CORES,
        "effective_cores": _effective_cores(),
        "versions": bench_versions(),
        "cases": {
            "fleet_fuzz_sweep_4workers": _case_fleet_fuzz(),
            "fleet_fuzz_sweep_paired": _case_fleet_fuzz_paired(),
        },
    }


def _as_table(document: dict) -> Table:
    table = Table(
        ["case", "speedup", "equal", "cores"],
        title="PAR — fleet fan-out",
    )
    fleet = document["cases"]["fleet_fuzz_sweep_4workers"]
    table.add_row(
        [
            "fleet_fuzz_sweep_4workers",
            f"{fleet['speedup']}x",
            fleet["metrics"]["reports_identical"],
            fleet["metrics"]["effective_cores"],
        ]
    )
    paired = document["cases"]["fleet_fuzz_sweep_paired"]
    table.add_row(
        [
            "fleet_fuzz_sweep_paired",
            paired.get("skipped") or f"{paired['speedup']}x (median of pairs)",
            paired["metrics"].get("reports_identical", "-"),
            paired["metrics"]["effective_cores"],
        ]
    )
    return table


def _assert_document(document: dict) -> None:
    fleet = document["cases"]["fleet_fuzz_sweep_4workers"]
    assert fleet["metrics"]["serial_ok"], "sequential fuzz sweep failed"
    assert fleet["metrics"]["fleet_ok"], "fleet fuzz sweep failed"
    assert fleet["metrics"]["reports_identical"], (
        "fleet fuzz report differs from the sequential report — "
        "seed-stride determinism is broken"
    )
    if fleet["metrics"]["gated"]:
        assert fleet["speedup"] >= TARGET_SPEEDUP, (
            f"fleet fuzz speedup {fleet['speedup']}x is below the "
            f"{TARGET_SPEEDUP}x floor on a "
            f"{fleet['metrics']['effective_cores']}-core runner"
        )
    paired = document["cases"]["fleet_fuzz_sweep_paired"]
    if "skipped" not in paired:
        metrics = paired["metrics"]
        assert metrics["serial_ok"] and metrics["fleet_ok"], (
            "paired fuzz sweep failed"
        )
        assert metrics["reports_identical"], (
            "paired fleet fuzz report differs from the sequential report"
        )
        assert paired["speedup"] >= PAIRED_FLOOR, (
            f"median paired fleet speedup {paired['speedup']}x is below the "
            f"{PAIRED_FLOOR}x floor with {metrics['jobs']} workers on a "
            f"{metrics['effective_cores']}-core runner"
        )


def test_parallel_speedup(report):
    document = run_parallel_bench()
    write_bench_document(BENCH_PATH, document)
    report(_as_table(document))
    _assert_document(document)


if __name__ == "__main__":
    doc = run_parallel_bench()
    write_bench_document(BENCH_PATH, doc)
    print(_as_table(doc).render())
    print(f"\nwrote {BENCH_PATH}")
    _assert_document(doc)
