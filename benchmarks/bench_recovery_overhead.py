"""REC — epoch-journal overhead on the Abilene controller loop.

The durability layer (``docs/recovery.md``) appends one fsync'd line
at every epoch commit.  That is only an acceptable design if the
journal write is noise next to the epoch's LP solves — this benchmark
pins that claim: on the paper's Abilene topology, journaling must add
**less than 10%** to the simulation's wall time (plus a small absolute
slack so near-zero baselines on fast machines don't turn the ratio into
a coin flip).  A second gate pins why it is cheap: the bytes the appends
pass to ``write()`` stay within 1.5x the final journal size, where a
whole-file rewrite per commit would write about ``n / 2`` times it over
``n`` commits.
"""

import os
import time

import pytest

from repro import NULL_TELEMETRY, EpochJournal, Simulation, Telemetry
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
WRITE_AMPLIFICATION = 1.5
PROC_IO = "/proc/self/io"


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


def _wchar() -> int:
    """Bytes this process has passed to write() so far (Linux procfs)."""
    with open(PROC_IO, "rb") as fh:
        for line in fh:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError(f"{PROC_IO} has no wchar field")


def test_append_bytes_within_1_5x_journal_size(
    report, instance, tmp_path, monkeypatch
):
    if not os.path.exists(PROC_IO):
        pytest.skip(f"{PROC_IO} is missing: no procfs to count written bytes")
    network, jobs = instance
    written = 0
    append = EpochJournal.append

    def counted_append(self, entry):
        nonlocal written
        before = _wchar()
        try:
            return append(self, entry)
        finally:
            written += _wchar() - before

    monkeypatch.setattr(EpochJournal, "append", counted_append)
    path = tmp_path / "bytes.jsonl"
    run_once(network, jobs, journal_path=path)
    size = path.stat().st_size
    lines = len(path.read_bytes().splitlines())

    table = Table(
        ["metric", "value"],
        title="REC — bytes written by journal appends (Abilene, reduce)",
    )
    table.add_row(["epoch commits", lines - 1])
    table.add_row(["final journal (B)", size])
    table.add_row(["appends passed to write() (B)", written])
    table.add_row(["written / final size", round(written / size, 3)])
    report(table)

    assert lines > 2, "journaled run committed fewer than two epochs"
    assert written <= WRITE_AMPLIFICATION * size, (
        f"appends wrote {written} B for a {size} B journal "
        f"(limit {WRITE_AMPLIFICATION}x): commits rewrite earlier lines"
    )


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
