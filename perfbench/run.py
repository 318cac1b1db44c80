"""Run one benchmark workload and print its metrics as one JSON line.

From the root of a checkout::

    python3 perfbench/run.py --workload sim-abilene-extend --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs it with the layer ledger
installed (``perfbench/ledger.py``) and reports the per-layer metrics,
writing every span to ``.perfbench_out/``.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine and the sample counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One process, one thread: BLAS/OpenMP pools must not race the controller
#: for the two cores, and must be pinned before NumPy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

#: Instance index of the untimed warm-up run (outside any timed index).
WARMUP_INDEX = 1_000_000
WARMUP_HORIZON = 6.0

#: Set-ups timed per instance, of which the fastest counts: a set-up takes
#: milliseconds, and between two sets of runs the median of single
#: readings moved by a third.  One ``gc.collect()`` precedes the three,
#: not one each: a collection takes about 35 ms, ten set-ups of Abilene.
SETUP_REPEATS = 3

#: Per-epoch percentile reported next to the median: the highest one with
#: at least ten samples beyond it once a run has 100 epochs.
MIN_EPOCHS = 100

#: Ledger span name -> per-layer self-time metric.
SELF_METRICS = {
    "paths": "paths.s",
    "engine.structure": "engine.structure_s",
    "engine.solve": "engine.solve_s",
    "lp": "lp.s",
    "lp.highs": "lp.highs_s",
    "scheduler": "scheduler.s",
    "lpdar": "lpdar.s",
    "lpdar.greedy": "lpdar.greedy_s",
    "lpdar.discretize": "lpdar.discretize_s",
    "ret": "ret.s",
    "admission": "admission.s",
    "verify": "verify.s",
    "journal": "journal.s",
    "control": "control.s",
    "service": "service.self_s",
    "service.submit": "service.submit_s",
    "sim": "sim.self_s",
}

#: Per-layer counters copied straight from the tracer.
COUNT_METRICS = (
    "paths.calls", "paths.pairs_routed", "engine.structure_calls",
    "engine.patch_hits", "engine.cold_builds", "engine.cached_solves",
    "engine.memo_hits", "lp.solves", "scheduler.calls",
    "scheduler.stage2_solves", "lpdar.calls", "ret.calls", "admission.calls",
    "verify.calls", "journal.appends", "journal.bytes_written",
    "control.calls", "service.submits", "sim.epochs",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(instances: int, epochs: int) -> dict:
    import numpy
    import scipy

    import repro

    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "instances": instances,
        "epoch_samples": epochs,
    }


def quality_metrics(quality: Counter, run_s: float) -> dict:
    return {
        "decisions_per_s": quality["decisions"] / run_s,
        "delivered_share": quality["delivered"] / quality["offered"],
        "deadline_met_share": quality["met"] / quality["admitted"],
        "accept_share": quality["accepted"] / quality["unique"],
    }


def end_to_end(records, setups) -> dict:
    import numpy as np

    epochs = [s for r in records for s in r.epoch_s]
    run_s = sum(r.run_s for r in records)
    quality = sum((r.quality for r in records), Counter())
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "epoch_p50_ms": float(np.percentile(epochs, 50)) * 1e3,
        "epoch_p90_ms": float(np.percentile(epochs, 90)) * 1e3,
        **quality_metrics(quality, run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(records, counts: Counter, ledger: Counter, overhead: float) -> dict:
    guards = sum((r.guards for r in records), Counter())
    solves = max(counts["lp.solves"], 1)
    values = {name: float(counts[name]) for name in COUNT_METRICS}
    values.update({metric: float(ledger["self:" + span])
                   for span, metric in SELF_METRICS.items()})
    values.update({
        "lp.rows": counts["lp.rows"] / solves,
        "lp.cols": counts["lp.cols"] / solves,
        "lp.nnz": counts["lp.nnz"] / solves,
        "service.ticks": float(guards["ticks"]),
        "service.shed": float(guards["shed"]),
        "service.decided": float(guards["decided"]),
        "service.negotiated": float(guards["negotiated"]),
        "service.voided": float(guards["voided"]),
        "trace.unattributed_share": ledger["unattributed_s"] / ledger["epoch_s"],
        "trace.overhead_ratio": overhead,
    })
    return values


def traced_run(workload, seed, index, workdir, trail):
    """One instance under the ledger; returns (record, counts, ledger).

    Appends the instance's spans and per-epoch ledger rows to ``trail``.
    """
    from ledger import Tracer, build_ledger

    instance = workload.setup(seed, index, workdir)
    tracer = Tracer()
    tracer.install_layers()
    try:
        record = workload.run(instance, tracer)
    finally:
        tracer.restore()
    rows = build_ledger(tracer)
    counts = Counter(tracer.counts)
    ledger = Counter({"self:" + k: v for k, v in rows["self_s"].items()})
    ledger["epoch_s"] = rows["epoch_s"]
    ledger["unattributed_s"] = rows["unattributed_s"]
    t0 = tracer.stamps[0]
    for name, start, end, parent, epoch in tracer.spans:
        trail.append({"instance": index, "span": name, "start": start - t0,
                      "end": end - t0, "parent": parent, "epoch": epoch})
    for row in rows["epochs"]:
        trail.append({"instance": index, "ledger": row})
    return record, counts, ledger


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # Modules the controller imports lazily, loaded before any timing.
    import repro.engine.assembly  # noqa: F401
    import repro.serialization  # noqa: F401
    import repro.verify.checker  # noqa: F401
    from ledger import clock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    instances = max(1, round(args.seconds / workload.nominal_s))
    workdir = ROOT / ".perfbench_run"
    workdir.mkdir(exist_ok=True)
    try:
        workload.run(workload.setup(args.seed, WARMUP_INDEX, workdir,
                                    horizon=WARMUP_HORIZON))
        if args.trace:
            outdir = ROOT / ".perfbench_out"
            outdir.mkdir(exist_ok=True)
            trail: list = []
            reference = workload.run(workload.setup(args.seed, 0, workdir))
            records, counts, ledger = [], Counter(), Counter()
            for index in range(instances):
                record, c, lg = traced_run(workload, args.seed, index,
                                           workdir, trail)
                records.append(record)
                counts += c
                ledger += lg
            problems = [p for r in records + [reference] for p in r.problems]
            if (reference.fingerprint != records[0].fingerprint
                    or reference.quality != records[0].quality):
                problems.append("tracing changed the run's outputs")
            values = per_layer(records, counts, ledger,
                               records[0].run_s / reference.run_s)
            metric_specs = spec["per_layer"]
            path = outdir / f"{workload.name}-seed{args.seed}.trace.jsonl"
            with open(path, "w") as fh:
                for line in trail:
                    fh.write(json.dumps(line) + "\n")
            records_all = records + [reference]
        else:
            records, setups = [], []
            for index in range(instances):
                best = float("inf")
                gc.collect()
                for _ in range(SETUP_REPEATS):
                    t = clock()
                    instance = workload.setup(args.seed, index, workdir)
                    best = min(best, clock() - t)
                setups.append(best)
                records.append(workload.run(instance))
            counts = None
            problems = [p for r in records for p in r.problems]
            values = end_to_end(records, setups)
            metric_specs = spec["end_to_end"]
            records_all = records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    epochs = sum(len(r.epoch_s) for r in records)
    if epochs < MIN_EPOCHS:
        problems.append(f"only {epochs} timed epochs (need {MIN_EPOCHS})")
    quality = sum((r.quality for r in records), Counter())
    guards = sum((r.guards for r in records), Counter())
    if quality["offered"]:
        problems += workload.guard(quality, guards, counts)
    info = environment(instances, epochs)
    info["run_s"] = [r.run_s for r in records]
    info["cpu_s"] = [r.cpu_s for r in records]
    info["problems"] = problems
    print(json.dumps({"info": info}))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in records_all),
        "failed": sum(r.failed for r in records_all),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
