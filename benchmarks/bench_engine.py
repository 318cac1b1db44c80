"""ENG — layered model engine vs from-scratch builds, with a JSON trail.

The engine (``docs/architecture.md``) promises that reuse across
related solves — cached paths, per-job layout fragments, memoized LP
solutions keyed on the *discretized* instance, delta-patched structures
and carried cross-epoch plans — makes the RET binary-search probe loop
and the periodic controller measurably faster while changing nothing
about the answers.  This benchmark pins both halves of that claim:

* **RET probe loop** — an overloaded calibrated workload forces a full
  bisection on ``b``; the warm engine must be at least
  ``RET_SPEEDUP_FLOOR``× faster than a ``warm_start=False`` engine
  *and* return the identical extension and assignment.
* **Multi-epoch simulate (Abilene)** — the controller re-plans a
  book-ahead reservation workload every epoch.  Warm must be at least
  ``SIM_SPEEDUP_FLOOR``× faster, every epoch after the first must
  reuse structure (exact cache hit or delta patch — never a cold
  build), and the runs must serialize identically.
* **Multi-epoch simulate (100-node Waxman)** — the same controller
  loop at research-backbone scale, gating that cross-epoch reuse
  survives a network an order of magnitude larger than Abilene.

Results (best-of-``REPEATS`` wall times, speedups, verified-equal
metrics and the engine's cache counters) are written to
``BENCH_engine.json`` at the repo root, which CI diffs against the
committed baseline (``benchmarks/check_regression.py``) and uploads as
an artifact.  Runs under pytest (the CI gate) or as a plain script::

    PYTHONPATH=src python benchmarks/bench_engine.py
"""

from pathlib import Path

import numpy as np
import pytest
import scipy

from repro import NULL_TELEMETRY, Simulation, Telemetry, serialization
from repro.analysis import Table
from repro.core.ret import solve_ret
from repro.network.waxman import waxman_network
from repro.workload import WorkloadConfig, WorkloadGenerator

from _support import (
    abilene_network,
    bench_versions,
    booked_ahead,
    calibrated_jobs,
    time_best_of,
    write_bench_document,
)

SEED = 1009
REPEATS = 3
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Acceptance floor for the RET probe-loop case (ISSUE 5 target).
RET_SPEEDUP_FLOOR = 1.5
#: Acceptance floor for the Abilene multi-epoch simulate case (ISSUE 6
#: target): with delta-patched structures and carried warm starts the
#: controller loop must be at least twice as fast warm as cold.  This
#: replaces the old "not slower than baseline plus noise" slack gate —
#: a regression back to rebuild-everything now fails CI instead of
#: hiding inside the tolerance.
SIM_SPEEDUP_FLOOR = 2.0
#: The Waxman scale case gates more conservatively: the network is an
#: order of magnitude larger, so path resolution and LP solves dominate
#: differently, but cross-epoch reuse must still pay for itself.
WAXMAN_SPEEDUP_FLOOR = 1.5

#: Overloaded calibration: Z* < 1 forces RET to genuinely extend.
RET_NUM_JOBS = 18
RET_TARGET_ZSTAR = 0.65
#: Half-unit slices and a tight tolerance make the bisection long and
#: its late probes cluster below slice granularity — the regime the
#: discretized solve memo is built for (b_hat lands well inside b_max).
RET_B_MAX = 1.0
RET_SEARCH_TOL = 1e-6
RET_SLICE_LENGTH = 0.5

SIM_NUM_JOBS = 10
#: Windows are booked this many slices ahead of submission.  Advance
#: reservation is the paper's operating model for research-network bulk
#: transfers, and it is exactly the regime that exposed the cross-epoch
#: cache miss: every pre-window epoch re-plans a near-identical residual,
#: so a warm engine should answer from carried state (witness-certified
#: RET bounds, memoized zero probes, patched scheduler structures) while
#: a cold one rebuilds and re-solves the same LPs from scratch.
SIM_BOOKAHEAD_SLICES = 12
SIM_CONFIG = WorkloadConfig(
    size_low=30.0,
    size_high=120.0,
    window_slices_low=4,
    window_slices_high=10,
    start_slack_slices=2,
)

WAXMAN_NUM_NODES = 100
WAXMAN_NUM_JOBS = 12
WAXMAN_BOOKAHEAD_SLICES = 6
WAXMAN_CONFIG = WorkloadConfig(
    size_low=30.0,
    size_high=120.0,
    window_slices_low=4,
    window_slices_high=8,
    start_slack_slices=2,
)

#: Counters surfaced per epoch by the simulator's ``epoch_cache_stats``
#: telemetry records; the bench asserts on the first two.
_EPOCH_COUNTERS = (
    "structure_cache_hits",
    "structure_patch_hits",
    "cold_builds",
    "memo_hits",
    "ret_witness_hits",
)


def _ret_instance():
    network = abilene_network()
    jobs = calibrated_jobs(
        network, RET_NUM_JOBS, seed=SEED, target_zstar=RET_TARGET_ZSTAR
    )
    return network, jobs


def _sim_instance():
    network = abilene_network()
    generator = WorkloadGenerator(network, config=SIM_CONFIG, seed=SEED)
    jobs = booked_ahead(generator, SIM_NUM_JOBS, 5, SIM_BOOKAHEAD_SLICES)
    return network, jobs


def _waxman_instance():
    network = waxman_network(WAXMAN_NUM_NODES, seed=SEED)
    generator = WorkloadGenerator(network, config=WAXMAN_CONFIG, seed=SEED)
    jobs = booked_ahead(generator, WAXMAN_NUM_JOBS, 4, WAXMAN_BOOKAHEAD_SLICES)
    return network, jobs


def _time_best_of(fn, repeats=REPEATS):
    return time_best_of(fn, repeats=repeats)


def _case_ret_probe_loop():
    """Warm vs cold RET bisection on overloaded Abilene."""
    network, jobs = _ret_instance()
    telemetry = Telemetry()

    def run(warm_start, collector=NULL_TELEMETRY):
        with collector:
            return solve_ret(
                network,
                jobs,
                slice_length=RET_SLICE_LENGTH,
                b_max=RET_B_MAX,
                search_tol=RET_SEARCH_TOL,
                warm_start=warm_start,
            )

    cold_s, cold = _time_best_of(lambda: run(False))
    warm_s, warm = _time_best_of(lambda: run(True, telemetry))

    # Verify-identical outputs before any timing claim.
    assert warm.b_hat == pytest.approx(cold.b_hat)
    assert warm.b_final == pytest.approx(cold.b_final)
    assert warm.delta_steps == cold.delta_steps
    assert np.array_equal(
        warm.assignments.x_lpdar, cold.assignments.x_lpdar
    )

    counters = telemetry.counters
    return {
        "engine_seconds": round(warm_s, 4),
        "baseline_seconds": round(cold_s, 4),
        "speedup": round(cold_s / warm_s, 3),
        "metrics": {
            "b_hat": round(float(warm.b_hat), 9),
            "b_final": round(float(warm.b_final), 9),
            "delta_steps": int(warm.delta_steps),
            "ret_probes": int(counters.get("ret_probes", 0)),
            "memo_hits": int(counters.get("memo_hits", 0)),
            "engine_solves": int(counters.get("engine_solves", 0)),
            "layout_fragment_hits": int(
                counters.get("layout_fragment_hits", 0)
            ),
        },
    }


def _simulate_case(network, jobs):
    """Warm vs cold multi-epoch controller run over one instance.

    The timed runs carry no telemetry (measuring the engine, not the
    collector); a separate instrumented warm run then captures counters
    and the per-epoch ``epoch_cache_stats`` evidence — a fresh run,
    because repeating a timed one would duplicate its epoch records.
    """
    cold_s, cold = _time_best_of(
        lambda: Simulation(network, policy="extend", warm_start=False).run(jobs)
    )
    warm_s, warm = _time_best_of(
        lambda: Simulation(network, policy="extend", warm_start=True).run(jobs)
    )

    # Job lifecycles must match exactly (events also carry wall-clock
    # solve timings, so they are compared in the equivalence tests with
    # those stripped, not here).
    warm_dump = serialization.simulation_to_dict(warm)
    cold_dump = serialization.simulation_to_dict(cold)
    assert warm_dump["records"] == cold_dump["records"], (
        "warm and cold simulations diverged"
    )

    with Telemetry() as telemetry:
        Simulation(network, policy="extend", warm_start=True).run(jobs)
    per_epoch = [
        {name: int(rec[name]) for name in _EPOCH_COUNTERS}
        | {"epoch": int(rec["epoch"])}
        for rec in telemetry.records_of("epoch_cache_stats")
    ]
    # Structural evidence the speedup rests on: the run must actually
    # patch (not just exact-hit), and no epoch after the first may fall
    # back to an all-cold rebuild.
    assert any(e["structure_patch_hits"] > 0 for e in per_epoch), (
        "no structure was delta-patched; the warm path degenerated"
    )
    for entry in per_epoch[1:]:
        reused = entry["structure_cache_hits"] + entry["structure_patch_hits"]
        assert reused > 0, (
            f"epoch {entry['epoch']} reused no structure: {entry}"
        )

    counters = telemetry.counters
    return {
        "engine_seconds": round(warm_s, 4),
        "baseline_seconds": round(cold_s, 4),
        "speedup": round(cold_s / warm_s, 3),
        "metrics": {
            "completion_rate": round(float(warm.completion_rate), 9),
            "delivered_volume": round(float(warm.delivered_volume), 9),
            "epochs": len(per_epoch),
            "structure_cache_hits": int(
                counters.get("structure_cache_hits", 0)
            ),
            "structure_patch_hits": int(
                counters.get("structure_patch_hits", 0)
            ),
            "cold_builds": int(counters.get("cold_builds", 0)),
            "memo_hits": int(counters.get("memo_hits", 0)),
            "ret_witness_skips": int(counters.get("ret_witness_skips", 0)),
            "engine_memo_bypass": int(counters.get("engine_memo_bypass", 0)),
            "path_cache_hits": int(counters.get("path_cache_hits", 0)),
            "layout_fragment_hits": int(
                counters.get("layout_fragment_hits", 0)
            ),
        },
        "per_epoch": per_epoch,
    }


def _case_simulate_epochs():
    """Book-ahead reservations on Abilene, re-planned every epoch."""
    network, jobs = _sim_instance()
    return _simulate_case(network, jobs)


def _case_simulate_waxman():
    """The same controller loop on a 100-node Waxman research backbone."""
    network, jobs = _waxman_instance()
    return _simulate_case(network, jobs)


def run_engine_bench() -> dict:
    """Run all cases and return the ``BENCH_engine.json`` document."""
    return {
        "schema": 2,
        "suite": "engine-speedup",
        "repeats": REPEATS,
        "target_ret_speedup": RET_SPEEDUP_FLOOR,
        "target_sim_speedup": SIM_SPEEDUP_FLOOR,
        "target_waxman_speedup": WAXMAN_SPEEDUP_FLOOR,
        "versions": bench_versions(scipy=scipy.__version__),
        "cases": {
            "ret_probe_loop_abilene": _case_ret_probe_loop(),
            "simulate_epochs_abilene": _case_simulate_epochs(),
            "simulate_epochs_waxman100": _case_simulate_waxman(),
        },
    }


def _as_table(document: dict) -> Table:
    table = Table(
        ["case", "engine (s)", "baseline (s)", "speedup"],
        title="ENG — layered engine vs from-scratch",
    )
    for name, case in document["cases"].items():
        table.add_row(
            [
                name,
                case["engine_seconds"],
                case["baseline_seconds"],
                f"{case['speedup']}x",
            ]
        )
    return table


def _assert_floor(document: dict, case_name: str, floor: float) -> None:
    case = document["cases"][case_name]
    assert case["speedup"] >= floor, (
        f"{case_name} speedup {case['speedup']}x is below the {floor}x "
        f"floor (engine {case['engine_seconds']}s vs baseline "
        f"{case['baseline_seconds']}s)"
    )


def test_engine_speedup(report):
    document = run_engine_bench()
    write_bench_document(BENCH_PATH, document)
    report(_as_table(document))

    _assert_floor(document, "ret_probe_loop_abilene", RET_SPEEDUP_FLOOR)
    _assert_floor(document, "simulate_epochs_abilene", SIM_SPEEDUP_FLOOR)
    _assert_floor(document, "simulate_epochs_waxman100", WAXMAN_SPEEDUP_FLOOR)


if __name__ == "__main__":
    doc = run_engine_bench()
    write_bench_document(BENCH_PATH, doc)
    print(_as_table(doc).render())
    print(f"\nwrote {BENCH_PATH}")
