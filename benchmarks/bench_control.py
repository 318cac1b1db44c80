"""CTL — epoch-control kernel overhead and policy-sweep gates.

The control refactor (``docs/architecture.md``, "Control kernel &
policy surface") rebuilt `Simulation` and `ReservationService` as thin
drivers over the shared :class:`~repro.control.EpochKernel`, with an
optional :class:`~repro.control.ControlPolicy` choosing per-epoch
knobs.  This benchmark pins the two promises that refactor made:

* **Kernel overhead** — a multi-epoch Abilene controller run with
  :class:`~repro.control.FixedPolicy` attached (the kernel's full
  observe → decide → feedback path exercised every epoch) must cost at
  most ``OVERHEAD_CEILING`` more wall time than the bare
  ``control_policy=None`` run, and must produce identical records.
  Bare and armed runs alternate in one process, ``OVERHEAD_PAIRS`` of
  each, and the gate reads the median of the per-pair ``armed / bare``
  ratios: two best-of blocks timed one after the other read anywhere
  from -12% to +36% on one tree on a shared 2-vCPU host.
  The bare run is itself the seed baseline — the kernel's default path
  builds no observations and reuses the prebuilt scheduler, so the
  refactor's cost on untouched callers is bounded by the same gate.
* **Adaptive policies earn their knob** — on perfbench-shaped Abilene
  instances (1 wavelength per link, the ``extend`` policy, the checker
  on every epoch), where about a third of scheduling passes miss the
  Remark-1 fairness floor at every alpha, each adaptive baseline must
  beat `fixed` at what it adapts, with bounds fixed before measuring:
  `bandit` (learns the alpha start) must solve at most
  ``BANDIT_STAGE2_CEILING`` of `fixed`'s stage-2 LPs while delivering
  at least ``BANDIT_DELIVERED_FLOOR`` of its volume; `load-reactive`
  (turns ``k_paths`` with the backlog) must beat `fixed`'s mean
  deadline-met share.  Either policy reduced to `fixed`'s behaviour
  fails the gate (a tie is not a win).

Results go to ``BENCH_control.json`` at the repo root, diffed against
the committed baseline by ``benchmarks/check_regression.py`` and
uploaded as a CI artifact.  Runs under pytest or as a script::

    PYTHONPATH=src python benchmarks/bench_control.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import Simulation, serialization
from repro.analysis import Table
from repro.control import FixedPolicy, make_policy
from repro.network.topologies import abilene
from repro.obs import Telemetry
from repro.workload import JobSet, WorkloadConfig, WorkloadGenerator

from _support import (
    abilene_network,
    bench_versions,
    booked_ahead,
    time_pairs,
    write_bench_document,
)

SEED = 1009
#: Bare/armed pairs the overhead gate times; odd, so the median is one
#: pair's ratio.
OVERHEAD_PAIRS = 15
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_control.json"

#: Acceptance ceiling on the kernel's wall-time overhead: a FixedPolicy
#: run (full observe/decide/feedback every epoch) may cost at most this
#: fraction more than the bare run, in the median pair.
OVERHEAD_CEILING = 0.05

#: The policy sweep's instances: ``(seed, index)`` draws its jobs from
#: ``numpy.random.default_rng([seed, index, 0])``, and ``seed`` also
#: seeds the stochastic policies, so the sweep is deterministic.
SWEEP_SEEDS = (201, 202, 203, 204, 205)
SWEEP_INDICES = (0, 1)
SWEEP_POLICIES = ("fixed", "bandit", "load-reactive")
#: Arrivals per slice, arrival span, job sizes, window slices and the
#: lead (slices) between arrival and window start.
SWEEP_RATE, SWEEP_HORIZON = 2.0, 20.0
SWEEP_SIZES, SWEEP_WINDOWS, SWEEP_LEAD = (15.0, 60.0), (2, 6), 3.0

#: Gate bounds, fixed before measuring: `bandit` may solve at most this
#: share of `fixed`'s stage-2 LPs ...
BANDIT_STAGE2_CEILING = 0.8
#: ... while delivering at least this share of `fixed`'s volume.
BANDIT_DELIVERED_FLOOR = 0.995

#: Same multi-epoch advance-reservation shape as ENG's simulate case:
#: enough epochs that per-epoch kernel costs would show up, small
#: enough to run in CI.
SIM_NUM_JOBS = 10
SIM_BOOKAHEAD_SLICES = 12
SIM_CONFIG = WorkloadConfig(
    size_low=30.0,
    size_high=120.0,
    window_slices_low=4,
    window_slices_high=10,
    start_slack_slices=2,
)


def _sim_instance():
    network = abilene_network()
    generator = WorkloadGenerator(network, config=SIM_CONFIG, seed=SEED)
    jobs = booked_ahead(generator, SIM_NUM_JOBS, 5, SIM_BOOKAHEAD_SLICES)
    return network, jobs


def _case_kernel_overhead():
    """Bare kernel vs FixedPolicy-armed kernel on a multi-epoch run."""
    network, jobs = _sim_instance()

    bare_times, armed_times, bare, armed = time_pairs(
        lambda: Simulation(network, policy="extend").run(jobs),
        lambda: Simulation(
            network, policy="extend", control_policy=FixedPolicy()
        ).run(jobs),
        OVERHEAD_PAIRS,
    )
    ratios = [a / b for a, b in zip(armed_times, bare_times)]
    median_ratio = float(np.median(ratios))

    # Identity before any timing claim: arming the kernel's policy path
    # must not change a single record.
    bare_dump = serialization.simulation_to_dict(bare)
    armed_dump = serialization.simulation_to_dict(armed)
    assert bare_dump["records"] == armed_dump["records"], (
        "FixedPolicy run diverged from the bare run"
    )

    return {
        "baseline_seconds": round(min(bare_times), 4),
        "engine_seconds": round(min(armed_times), 4),
        "speedup": round(1.0 / median_ratio, 3),
        "metrics": {
            "overhead_fraction": round(median_ratio - 1.0, 4),
            "pairs": [
                {"bare_seconds": round(b, 4), "armed_seconds": round(a, 4),
                 "overhead_fraction": round(a / b - 1.0, 4)}
                for b, a in zip(bare_times, armed_times)
            ],
            "epochs": sum(
                1 for e in bare.events
                if type(e).__name__ == "SchedulingPass"
            ),
            "completed": bare.num_completed,
        },
    }


def _sweep_jobs(network, seed: int, index: int) -> JobSet:
    """``rate * horizon`` jobs arriving over ``[0, horizon)``, each window
    opening ``SWEEP_LEAD`` slices after its arrival slice."""
    rng = np.random.default_rng([seed, index, 0])
    config = WorkloadConfig(
        size_low=SWEEP_SIZES[0], size_high=SWEEP_SIZES[1],
        window_slices_low=SWEEP_WINDOWS[0],
        window_slices_high=SWEEP_WINDOWS[1],
        start_slack_slices=0,
    )
    generator = WorkloadGenerator(network, config, rng=rng)
    arrivals = np.sort(rng.uniform(
        0.0, SWEEP_HORIZON, int(round(SWEEP_RATE * SWEEP_HORIZON))
    ))
    jobs = (generator.job(f"job-{k}", arrival=float(t))
            for k, t in enumerate(arrivals))
    return JobSet(replace(j, start=j.start + SWEEP_LEAD,
                          end=j.end + SWEEP_LEAD) for j in jobs)


def _sweep_run(policy, seed: int, index: int) -> dict:
    """One checked ``extend`` run: delivered volume, deadline-met share
    and stage-2 LPs solved."""
    network = abilene(capacity=1, wavelength_rate=20.0)
    jobs = _sweep_jobs(network, seed, index)
    with Telemetry() as telemetry:
        result = Simulation(
            network, policy="extend", verify_epochs=True,
            control_policy=policy,
        ).run(jobs)
    return {
        "delivered": result.delivered_volume,
        "deadline_share": result.deadline_rate,
        "stage2_lps": sum(
            stats.calls for path, stats in telemetry.span_stats.items()
            if path.rsplit(".", 1)[-1] == "stage2"
        ),
    }


def _case_policy_sweep(make=make_policy):
    """Each policy over the sweep instances; ``make(name, seed)`` builds
    the policy (a mutated factory shows the gate can fail)."""
    runs = {
        name: [_sweep_run(make(name, seed=seed), seed, index)
               for seed in SWEEP_SEEDS for index in SWEEP_INDICES]
        for name in SWEEP_POLICIES
    }
    fixed = runs["fixed"]
    metrics = {"instances": [[s, i] for s in SWEEP_SEEDS
                             for i in SWEEP_INDICES]}
    for name, rows in runs.items():
        metrics[name] = {
            "delivered": round(sum(r["delivered"] for r in rows), 6),
            "deadline_share": round(
                float(np.mean([r["deadline_share"] for r in rows])), 6),
            "stage2_lps": sum(r["stage2_lps"] for r in rows),
            # Per-instance spread against fixed: (wins, ties, losses).
            "deadline_wins_ties_losses": [
                sum(r["deadline_share"] > f["deadline_share"] + 1e-12
                    for r, f in zip(rows, fixed)),
                sum(abs(r["deadline_share"] - f["deadline_share"]) <= 1e-12
                    for r, f in zip(rows, fixed)),
                sum(r["deadline_share"] < f["deadline_share"] - 1e-12
                    for r, f in zip(rows, fixed)),
            ],
            "per_instance_stage2_lps": [r["stage2_lps"] for r in rows],
            "per_instance_delivered": [round(r["delivered"], 6) for r in rows],
        }
    return {
        # The regression metric: bandit's stage-2 LP saving over fixed
        # (fixed's LPs / bandit's).  Deterministic, so the committed
        # baseline pins it.
        "score": round(
            metrics["fixed"]["stage2_lps"] / metrics["bandit"]["stage2_lps"], 6
        ),
        "metrics": metrics,
    }


def policy_gate_failures(sweep: dict) -> list[str]:
    """Why the adaptive policies fail their gate (empty: they pass)."""
    m = sweep["metrics"]
    fixed, bandit, reactive = m["fixed"], m["bandit"], m["load-reactive"]
    failures = []
    if bandit["stage2_lps"] > BANDIT_STAGE2_CEILING * fixed["stage2_lps"]:
        failures.append(
            f"bandit solved {bandit['stage2_lps']} stage-2 LPs, more than "
            f"{BANDIT_STAGE2_CEILING}x fixed's {fixed['stage2_lps']}"
        )
    if bandit["delivered"] < BANDIT_DELIVERED_FLOOR * fixed["delivered"]:
        failures.append(
            f"bandit delivered {bandit['delivered']}, less than "
            f"{BANDIT_DELIVERED_FLOOR}x fixed's {fixed['delivered']}"
        )
    if reactive["deadline_share"] <= fixed["deadline_share"]:
        failures.append(
            f"load-reactive met {reactive['deadline_share']} of deadlines, "
            f"no more than fixed's {fixed['deadline_share']}"
        )
    return failures


def run_control_bench() -> dict:
    return {
        "schema": 2,
        "suite": "control-kernel",
        "overhead_pairs": OVERHEAD_PAIRS,
        "target_overhead_ceiling": OVERHEAD_CEILING,
        "versions": bench_versions(),
        "cases": {
            "kernel_overhead_simulate_abilene": _case_kernel_overhead(),
            "policy_sweep_vs_fixed": _case_policy_sweep(),
        },
    }


def _as_table(document: dict) -> Table:
    overhead = document["cases"]["kernel_overhead_simulate_abilene"]
    sweep = document["cases"]["policy_sweep_vs_fixed"]
    table = Table(
        title="CTL: epoch-control kernel gates",
        columns=["case", "metric", "value", "gate"],
    )
    table.add_row([
        "kernel_overhead",
        f"median overhead ({OVERHEAD_PAIRS} pairs)",
        f"{100 * overhead['metrics']['overhead_fraction']:+.2f}%",
        f"<= {100 * OVERHEAD_CEILING:.0f}%",
    ])
    m = sweep["metrics"]
    table.add_row([
        "policy_sweep", "bandit/fixed stage-2 LPs",
        f"{m['bandit']['stage2_lps'] / m['fixed']['stage2_lps']:.4f}",
        f"<= {BANDIT_STAGE2_CEILING}",
    ])
    table.add_row([
        "policy_sweep", "bandit/fixed delivered",
        f"{m['bandit']['delivered'] / m['fixed']['delivered']:.4f}",
        f">= {BANDIT_DELIVERED_FLOOR}",
    ])
    table.add_row([
        "policy_sweep", "load-reactive - fixed deadline share",
        f"{m['load-reactive']['deadline_share'] - m['fixed']['deadline_share']:+.4f}",
        "> 0",
    ])
    return table


def test_control_gates(report):
    document = run_control_bench()
    write_bench_document(BENCH_PATH, document)
    report(_as_table(document))

    overhead = document["cases"]["kernel_overhead_simulate_abilene"]
    frac = overhead["metrics"]["overhead_fraction"]
    assert frac <= OVERHEAD_CEILING, (
        f"kernel overhead {100 * frac:.2f}% exceeds the "
        f"{100 * OVERHEAD_CEILING:.0f}% ceiling in the median of "
        f"{OVERHEAD_PAIRS} bare/armed pairs "
        f"({overhead['metrics']['pairs']})"
    )

    failures = policy_gate_failures(document["cases"]["policy_sweep_vs_fixed"])
    assert not failures, "; ".join(failures)

if __name__ == "__main__":
    doc = run_control_bench()
    write_bench_document(BENCH_PATH, doc)
    print(_as_table(doc).render())
    print(f"\nwrote {BENCH_PATH}")
