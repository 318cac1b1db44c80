"""REC — epoch-journal overhead on the Abilene controller loop.

The durability layer (``docs/recovery.md``) rewrites the whole journal
through an fsync'd temp file at every epoch commit.  That is only an
acceptable design if the journal write is noise next to the epoch's LP
solves — this benchmark pins that claim: on the paper's Abilene
topology, journaling must add **less than 10%** to the simulation's
wall time (plus a small absolute slack so near-zero baselines on fast
machines don't turn the ratio into a coin flip).
"""

import time

import pytest

from repro import NULL_TELEMETRY, Simulation, Telemetry
from repro.workload import WorkloadConfig, WorkloadGenerator
from repro.analysis import Table

from _support import abilene_network

SEED = 2718
NUM_JOBS = 12
CONFIG = WorkloadConfig(
    size_low=20.0,
    size_high=120.0,
    window_slices_low=3,
    window_slices_high=8,
)
REPEATS = 3
OVERHEAD_RATIO = 0.10
ABS_SLACK_S = 0.10


@pytest.fixture(scope="module")
def instance():
    network = abilene_network()
    jobs = WorkloadGenerator(network, CONFIG, seed=SEED).jobs(NUM_JOBS)
    return network, jobs


def run_once(network, jobs, journal_path=None, collector=NULL_TELEMETRY):
    sim = Simulation(network, policy="reduce", journal=journal_path)
    start = time.perf_counter()
    with collector:
        sim.run(jobs)
    return time.perf_counter() - start


def test_journal_overhead_under_10_percent(
    benchmark, report, instance, tmp_path
):
    network, jobs = instance

    # Min-of-repeats on both sides: the steadiest estimate either way.
    plain = min(run_once(network, jobs) for _ in range(REPEATS))
    telemetry = Telemetry()
    journaled = min(
        run_once(
            network, jobs, journal_path=tmp_path / f"run{i}.jsonl",
            collector=telemetry if i == 0 else NULL_TELEMETRY,
        )
        for i in range(REPEATS)
    )

    commits = int(telemetry.counters.get("journal_commits", 0))
    assert commits > 0, "journaled run never committed an epoch"
    overhead = journaled - plain
    per_commit_ms = 1e3 * max(overhead, 0.0) / commits

    table = Table(
        ["metric", "value"],
        title="REC — journaling overhead (Abilene, reduce policy)",
    )
    table.add_row(["plain run (s)", round(plain, 4)])
    table.add_row(["journaled run (s)", round(journaled, 4)])
    table.add_row(["epoch commits", commits])
    table.add_row(["overhead (s)", round(overhead, 4)])
    table.add_row(["overhead per commit (ms)", round(per_commit_ms, 3)])
    table.add_row(
        ["overhead ratio", round(overhead / plain, 4) if plain > 0 else 0.0]
    )
    report(table)

    assert journaled <= plain * (1.0 + OVERHEAD_RATIO) + ABS_SLACK_S, (
        f"journaling overhead too high: plain={plain:.4f}s "
        f"journaled={journaled:.4f}s "
        f"(limit {OVERHEAD_RATIO:.0%} + {ABS_SLACK_S}s slack)"
    )

    benchmark.pedantic(
        run_once,
        args=(network, jobs),
        kwargs={"journal_path": tmp_path / "bench.jsonl"},
        rounds=2,
        iterations=1,
    )
