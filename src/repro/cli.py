"""Command-line interface: ``python -m repro <command>``.

Five subcommands cover the controller workflow end to end, speaking the
JSON formats of :mod:`repro.serialization`:

* ``topology``  — write a network file (Abilene, synthetic, or Waxman);
* ``workload``  — draw a random paper-style workload over a network;
* ``schedule``  — run the maximizing-throughput algorithm, print the
  outcome (optionally as a Gantt chart), export the grant list;
* ``ret``       — run Algorithm 2 (relax end times until all jobs fit);
* ``simulate``  — replay the workload through the periodic controller;
* ``resume``    — continue a journaled simulation after a crash
  (see docs/recovery.md);
* ``serve``     — run the online reservation service over an arrival
  trace: batched admission, accept/reject/negotiate responses, load
  shedding, journaled decisions, and crash recovery via
  ``serve --resume`` (see docs/service.md);
* ``experiment`` — regenerate a paper figure (fig1..fig4, jobs-finished);
* ``verify``    — check a serialized schedule against its problem's
  invariants, or run the seeded scenario fuzzer / benchmark micro-suite
  (see docs/verify.md);
* ``fleet``     — fan fuzz scenarios or experiment cells out to a pool
  of worker processes (see docs/parallel.md);
* ``chaos``     — run a seeded composed fault timeline against the
  simulator, the service and the fleet with invariant monitors armed
  (see docs/chaos.md);
* ``policy``    — compare epoch-control policies (fixed, bandit,
  load-reactive) over checker-clean fuzz scenarios
  (see docs/architecture.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from . import __version__
from .analysis.gantt import job_gantt, link_gantt
from .analysis.reporting import Table
from .core.ret import solve_ret
from .core.scheduler import Scheduler
from .errors import ReproError
from .obs import Telemetry
from .experiments import EXPERIMENTS, run_experiment
from .network import abilene, full_mesh, line, ring, waxman_network
from .serialization import (
    jobs_from_dict,
    jobs_to_dict,
    load_json,
    network_from_dict,
    network_to_dict,
    save_json,
    schedule_to_dict,
)
from .workload.trace_io import jobs_from_csv, jobs_to_csv
from .sim.metrics import summarize
from .sim.simulator import Simulation
from .workload.generator import WorkloadConfig, WorkloadGenerator

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Slotted wavelength scheduling for bulk transfers "
        "(ICPP 2009 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="generate a network JSON file")
    topo.add_argument(
        "kind", choices=["abilene", "line", "ring", "mesh", "waxman"]
    )
    topo.add_argument("--nodes", type=int, default=100,
                      help="node count for synthetic/waxman topologies")
    topo.add_argument("--capacity", type=int, default=1,
                      help="wavelengths per link")
    topo.add_argument("--rate", type=float, default=20.0,
                      help="data rate of one wavelength")
    topo.add_argument("--wavelengths", type=int, default=None,
                      help="split each link's total rate into this many "
                      "wavelengths (paper Figs. 1-2 sweep)")
    topo.add_argument("--seed", type=int, default=0, help="waxman seed")
    topo.add_argument("-o", "--output", required=True)

    work = sub.add_parser("workload", help="generate a random workload")
    work.add_argument("--network", required=True)
    work.add_argument("--jobs", type=int, default=20)
    work.add_argument("--seed", type=int, default=0)
    work.add_argument("--size-low", type=float, default=1.0)
    work.add_argument("--size-high", type=float, default=100.0)
    work.add_argument("--window-low", type=int, default=2,
                      help="min window length in slices")
    work.add_argument("--window-high", type=int, default=8,
                      help="max window length in slices")
    work.add_argument("--slice-length", type=float, default=1.0)
    work.add_argument("--arrival-rate", type=float, default=None,
                      help="Poisson arrivals per time unit (online trace); "
                      "omit for a batch all arriving at t=0")
    work.add_argument("--horizon", type=float, default=12.0,
                      help="arrival horizon when --arrival-rate is set")
    work.add_argument("-o", "--output", required=True)

    sched = sub.add_parser("schedule", help="run stage1 + stage2 + LPDAR")
    sched.add_argument("--network", required=True)
    sched.add_argument("--jobs", required=True)
    sched.add_argument("--k-paths", type=int, default=4)
    sched.add_argument("--alpha", type=float, default=0.1)
    sched.add_argument("--slice-length", type=float, default=1.0)
    sched.add_argument("--gantt", action="store_true",
                       help="print job and link Gantt charts")
    sched.add_argument("--profile", action="store_true",
                       help="print the solve-telemetry tables after the run")
    sched.add_argument("-o", "--output", default=None,
                       help="write the grant list as JSON")

    ret = sub.add_parser("ret", help="run Algorithm 2 (relax end times)")
    ret.add_argument("--network", required=True)
    ret.add_argument("--jobs", required=True)
    ret.add_argument("--k-paths", type=int, default=4)
    ret.add_argument("--slice-length", type=float, default=1.0)
    ret.add_argument("--b-max", type=float, default=10.0)
    ret.add_argument("--delta", type=float, default=0.1)
    ret.add_argument("--mode", choices=["end_time", "interval"],
                     default="end_time")
    ret.add_argument("--profile", action="store_true",
                     help="print the solve-telemetry tables (including the "
                     "binary-search trace) after the run")
    ret.add_argument("--no-warm-start", action="store_true",
                     help="disable the model engine's layout/solution reuse "
                     "across binary-search probes (same result, slower; "
                     "see docs/architecture.md)")
    ret.add_argument("-o", "--output", default=None,
                     help="write the extended-schedule grant list as JSON")

    sim = sub.add_parser("simulate", help="run the periodic controller")
    sim.add_argument("--network", required=True)
    sim.add_argument("--jobs", required=True)
    sim.add_argument("--policy", choices=["reject", "reduce", "extend"],
                     default="reduce")
    sim.add_argument("--rejection", choices=["prefix", "greedy"],
                     default="prefix",
                     help="admission algorithm for the reject policy")
    sim.add_argument("--tau", type=float, default=1.0)
    sim.add_argument("--slice-length", type=float, default=1.0)
    sim.add_argument("--k-paths", type=int, default=4)
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--faults", default=None, metavar="SPEC",
                     help="inject link faults: 'random:mtbf=20,mttr=2', "
                     "inline 'down:a-b@2;up:a-b@5;degrade:c-d@3=1', or a "
                     ".json fault file (see docs/faults.md)")
    sim.add_argument("--fault-seed", type=int, default=0,
                     help="seed for random: fault specs (same seed, same "
                     "fault timeline, same event log)")
    sim.add_argument("--fault-baseline", action="store_true",
                     help="also run the same workload fault-free and report "
                     "the completion/deadline drop the faults caused")
    sim.add_argument("--journal", default=None, metavar="PATH",
                     help="write an epoch journal so a crashed run can be "
                     "continued with 'repro resume' (see docs/recovery.md)")
    sim.add_argument("--solve-budget", type=float, default=None,
                     metavar="SECONDS",
                     help="per-epoch wall-clock budget for the solve chain; "
                     "on exhaustion the scheduler degrades gracefully "
                     "instead of overrunning the epoch")
    sim.add_argument("--profile", action="store_true",
                     help="print the solve-telemetry tables after the run")
    sim.add_argument("--no-warm-start", action="store_true",
                     help="disable the model engine's cross-epoch reuse "
                     "(identical records and events, slower; "
                     "see docs/architecture.md)")
    sim.add_argument("--control-policy", default=None, metavar="NAME",
                     help="attach an epoch-control policy (fixed, bandit, "
                     "load-reactive) that picks per-epoch knobs — alpha "
                     "start, k_paths, solve-budget split; adaptive "
                     "policies are incompatible with --journal "
                     "(see docs/architecture.md)")
    sim.add_argument("-o", "--output", default=None,
                     help="write the run's records and event log as JSON")

    res = sub.add_parser(
        "resume",
        help="continue a journaled simulation from its last committed epoch",
    )
    res.add_argument("journal", help="epoch journal written by "
                     "'repro simulate --journal'")
    res.add_argument("--profile", action="store_true",
                     help="print the solve-telemetry tables after the run")
    res.add_argument("-o", "--output", default=None,
                     help="write the run's records and event log as JSON")

    srv = sub.add_parser(
        "serve",
        help="run the online reservation service over an arrival trace",
    )
    srv.add_argument("--network", default=None,
                     help="network JSON (required unless --resume)")
    srv.add_argument("--trace", default=None,
                     help="arrival trace: jobs JSON/CSV driven through the "
                     "closed-loop requester population")
    srv.add_argument("--requests", default=None, metavar="PATH",
                     help="raw request records (JSON list) submitted "
                     "verbatim; malformed records get typed rejections "
                     "instead of tracebacks")
    srv.add_argument("--resume", default=None, metavar="JOURNAL",
                     help="recover a crashed service from its decision "
                     "journal, then keep serving (see docs/service.md)")
    srv.add_argument("--tau", type=float, default=1.0)
    srv.add_argument("--slice-length", type=float, default=1.0)
    srv.add_argument("--k-paths", type=int, default=4)
    srv.add_argument("--queue-limit", type=int, default=1024,
                     help="bounded arrival queue; beyond it requests are "
                     "shed with an explicit 'overload' rejection")
    srv.add_argument("--rate", type=float, default=64.0,
                     help="token-bucket admission guard: decisions per "
                     "epoch the service will attempt")
    srv.add_argument("--burst", type=float, default=None,
                     help="token-bucket burst size (default: --rate)")
    srv.add_argument("--journal", default=None, metavar="PATH",
                     help="journal every decision before responding so a "
                     "crashed service can be recovered with --resume")
    srv.add_argument("--solve-budget", type=float, default=None,
                     metavar="SECONDS",
                     help="per-epoch wall-clock budget; missed-deadline "
                     "decisions fall back to certified verdicts")
    srv.add_argument("--crash", default=None, metavar="POINT@EPOCH",
                     help="inject a simulated crash (testing): one of "
                     "pre-batch, post-solve, pre-respond, post-journal "
                     "at the given epoch, e.g. 'pre-respond@2'")
    srv.add_argument("--faults", default=None, metavar="SPEC",
                     help="inject link faults (same spec language as "
                     "'repro simulate --faults')")
    srv.add_argument("--fault-seed", type=int, default=0)
    srv.add_argument("--retry-limit", type=int, default=2,
                     help="closed-loop driver: overload-shed retries per "
                     "request (exponential backoff in epochs)")
    srv.add_argument("--negotiate-limit", type=int, default=2,
                     help="closed-loop driver: negotiated counter-offers "
                     "accepted per request before giving up")
    srv.add_argument("--profile", action="store_true",
                     help="print the solve-telemetry tables after the run")
    srv.add_argument("-o", "--output", default=None,
                     help="write the SLO snapshot + commitment book as JSON")

    ver = sub.add_parser(
        "verify",
        help="check a schedule's invariants, fuzz the pipeline, or "
        "run the benchmark micro-suite",
    )
    ver.add_argument("--network", default=None,
                     help="network JSON (schedule-check mode)")
    ver.add_argument("--jobs", default=None,
                     help="jobs JSON/CSV (schedule-check mode)")
    ver.add_argument("--schedule", default=None,
                     help="serialized schedule JSON to check against the "
                     "problem (from 'repro schedule -o')")
    ver.add_argument("--slice-length", type=float, default=1.0,
                     help="slice length used to rebuild the time grid")
    ver.add_argument("--complete", action="store_true",
                     help="also require every job's full demand delivered "
                     "(RET-style schedules)")
    ver.add_argument("--fuzz", type=int, default=None, metavar="N",
                     help="run N seeded fuzz scenarios instead of checking "
                     "a schedule file")
    ver.add_argument("--seed", type=int, default=0,
                     help="base seed for --fuzz (deterministic)")
    ver.add_argument("--workers", type=int, default=1,
                     help="worker processes for --fuzz scenarios (results "
                     "are identical to a sequential run; see "
                     "docs/parallel.md)")
    ver.add_argument("--gap-bound", type=float, default=None,
                     help="override the documented LPDAR-vs-exact gap bound")
    ver.add_argument("--bench", action="store_true",
                     help="run the pinned benchmark micro-suite and write "
                     "its JSON trail")
    ver.add_argument("--repeats", type=int, default=3,
                     help="benchmark repeats per case (reports the minimum)")
    ver.add_argument("-o", "--output", default=None,
                     help="write the verification report / fuzz summary / "
                     "benchmark document as JSON")

    fleet = sub.add_parser(
        "fleet",
        help="fan seeded fuzz scenarios or experiment cells out to a "
        "pool of worker processes (see docs/parallel.md)",
    )
    fleet.add_argument(
        "what", choices=["fuzz", "experiments"],
        help="what to fan out: seeded fuzz scenarios, or paper-figure / "
        "ablation experiment cells",
    )
    fleet.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: every core the "
                       "process may use; 1 runs inline)")
    fleet.add_argument("--count", type=int, default=25,
                       help="fuzz scenarios to run (fuzz mode)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="base seed for fuzz scenarios (deterministic)")
    fleet.add_argument("--gap-bound", type=float, default=None,
                       help="override the documented LPDAR-vs-exact gap "
                       "bound (fuzz mode)")
    fleet.add_argument("--no-oracle", action="store_true",
                       help="skip the exact-MILP oracle (fuzz mode; faster)")
    fleet.add_argument("--names", default="all",
                       help="comma-separated experiment names, or 'all' "
                       "(experiments mode)")
    fleet.add_argument("--quick", action="store_true",
                       help="scaled-down experiment cells (experiments mode)")
    fleet.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="hang detection: kill and rebuild the worker "
                       "pool when no task completes for this long, "
                       "charging the retry budget")
    fleet.add_argument("-o", "--output", default=None,
                       help="write the fleet summary as JSON")

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded composed fault timeline (crashes, journal "
        "faults, faulty solver backends, worker kills/hangs) against "
        "the simulator, the reservation service and the fleet, with "
        "every invariant monitor armed (see docs/chaos.md)",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for both the workload and the "
                       "generated fault timeline (deterministic)")
    chaos.add_argument("--spec", default=None,
                       help="explicit chaos spec (inline entries, "
                       "'random:...', or a .json file) overriding the "
                       "generated timeline; see docs/chaos.md")
    chaos.add_argument("--target", choices=["sim", "serve", "fleet", "all"],
                       default="all",
                       help="which system to drive (default: all three)")
    chaos.add_argument("--workdir", default=None, metavar="DIR",
                       help="keep journals under DIR instead of a "
                       "removed temp dir (for post-mortems)")
    chaos.add_argument("-o", "--output", default=None,
                       help="write the full chaos report as JSON")

    pol = sub.add_parser(
        "policy",
        help="compare epoch-control policies over checker-clean fuzz "
        "scenarios (see docs/architecture.md)",
    )
    pol_sub = pol.add_subparsers(dest="policy_command", required=True)
    pcmp = pol_sub.add_parser(
        "compare",
        help="sweep policies over verify.fuzz scenarios with the "
        "invariant checker armed every epoch",
    )
    pcmp.add_argument("--policies", default="fixed,bandit,load-reactive",
                      help="comma-separated policy names "
                      "(fixed, bandit, load-reactive)")
    pcmp.add_argument("--seeds", type=int, default=3,
                      help="number of fuzz scenarios (seeds 0..N-1)")
    pcmp.add_argument("--k-paths", type=int, default=3)
    pcmp.add_argument("--no-faults", action="store_true",
                      help="restrict to fault-free scenarios")
    pcmp.add_argument("-o", "--output", default=None,
                      help="write the full comparison report as JSON")

    exp = sub.add_parser(
        "experiment", help="regenerate one of the paper's figures"
    )
    exp.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    exp.add_argument(
        "--quick", action="store_true",
        help="scaled-down run (seconds) preserving the figure's shape",
    )
    exp.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="also write the results as a markdown report",
    )

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_topology(args) -> int:
    if args.kind == "abilene":
        net = abilene(capacity=args.capacity, wavelength_rate=args.rate)
    elif args.kind == "line":
        net = line(args.nodes, args.capacity, args.rate)
    elif args.kind == "ring":
        net = ring(args.nodes, args.capacity, args.rate)
    elif args.kind == "mesh":
        net = full_mesh(args.nodes, args.capacity, args.rate)
    else:
        net = waxman_network(
            args.nodes,
            capacity=args.capacity,
            wavelength_rate=args.rate,
            seed=args.seed,
        )
    if args.wavelengths is not None:
        total = net.wavelength_rate * args.capacity
        net = net.with_wavelengths(args.wavelengths, total)
    save_json(network_to_dict(net), args.output)
    print(
        f"wrote {args.output}: {net.num_nodes} nodes, "
        f"{net.num_link_pairs} link pairs, "
        f"{net.capacities()[0]} wavelengths/link @ {net.wavelength_rate:g}"
    )
    return 0


def _load_jobs(path: str):
    """Job file loader: .csv via trace_io, anything else as JSON.

    CSV identifiers are coerced to integers where purely numeric, since
    the synthetic topologies name their nodes with ints and CSV has no
    type system.
    """
    if str(path).lower().endswith(".csv"):
        return jobs_from_csv(path, coerce_numeric=True)
    return jobs_from_dict(load_json(path))


def _cmd_workload(args) -> int:
    net = network_from_dict(load_json(args.network))
    config = WorkloadConfig(
        size_low=args.size_low,
        size_high=args.size_high,
        window_slices_low=args.window_low,
        window_slices_high=args.window_high,
        slice_length=args.slice_length,
    )
    generator = WorkloadGenerator(net, config, seed=args.seed)
    if args.arrival_rate is not None:
        jobs = generator.arrival_stream(args.arrival_rate, args.horizon)
    else:
        jobs = generator.jobs(args.jobs)
    if str(args.output).lower().endswith(".csv"):
        jobs_to_csv(jobs, args.output)
    else:
        save_json(jobs_to_dict(jobs), args.output)
    print(
        f"wrote {args.output}: {len(jobs)} jobs, "
        f"{jobs.total_size():.1f} total volume"
    )
    return 0


def _profile_telemetry(args) -> Telemetry | None:
    """A live collector when ``--profile`` was given, else None."""
    return Telemetry() if getattr(args, "profile", False) else None


def _print_profile(telemetry: Telemetry | None) -> None:
    if telemetry is not None:
        print()
        print(telemetry.render())


def _cmd_schedule(args) -> int:
    net = network_from_dict(load_json(args.network))
    jobs = _load_jobs(args.jobs)
    telemetry = _profile_telemetry(args)
    scheduler = Scheduler(
        net,
        k_paths=args.k_paths,
        alpha=args.alpha,
        slice_length=args.slice_length,
        telemetry=telemetry,
    )
    result = scheduler.schedule(jobs)

    table = Table(["metric", "value"], title="schedule summary")
    table.add_row(["jobs", len(jobs)])
    table.add_row(["Z* (stage 1)", round(result.zstar, 4)])
    table.add_row(["overloaded", result.overloaded])
    table.add_row(["alpha used", result.alpha])
    table.add_row(
        ["weighted throughput (LPDAR)", round(result.weighted_throughput(), 4)]
    )
    table.add_row(
        ["LPDAR / LP ratio", round(result.normalized_throughput("lpdar"), 4)]
    )
    table.add_row(["fairness floor met", result.meets_fairness()])
    table.add_row(["jobs fully served", round(result.fraction_finished(), 4)])
    print(table.render())

    if args.gantt:
        print()
        print(job_gantt(result.structure, result.x, max_jobs=20))
        print()
        print(link_gantt(result.structure, result.x, max_links=15))

    _print_profile(telemetry)

    if args.output:
        save_json(schedule_to_dict(result), args.output)
        print(f"\nwrote grant list to {args.output}")
    return 0


def _cmd_ret(args) -> int:
    net = network_from_dict(load_json(args.network))
    jobs = _load_jobs(args.jobs)
    telemetry = _profile_telemetry(args)
    result = solve_ret(
        net,
        jobs,
        slice_length=args.slice_length,
        k_paths=args.k_paths,
        b_max=args.b_max,
        delta=args.delta,
        mode=args.mode,
        telemetry=telemetry,
        warm_start=not args.no_warm_start,
    )
    table = Table(["metric", "value"], title="RET (Algorithm 2) summary")
    table.add_row(["mode", result.mode])
    table.add_row(["b_hat (LP-minimal)", round(result.b_hat, 4)])
    table.add_row(["b_final", round(result.b_final, 4)])
    table.add_row(["delta steps", result.delta_steps])
    table.add_row(["jobs finished (LPDAR)", f"{result.fraction_finished():.0%}"])
    table.add_row(
        ["avg end time LP (slices)", round(result.average_end_time("lp"), 3)]
    )
    table.add_row(
        ["avg end time LPDAR (slices)", round(result.average_end_time("lpdar"), 3)]
    )
    print(table.render())

    _print_profile(telemetry)

    if args.output:
        import numpy as np

        s = result.structure
        x = result.assignments.x_lpdar
        grants = []
        order = np.lexsort((s.col_path, s.col_job, s.col_slice))
        for c in order:
            if x[c] <= 0:
                continue
            i = int(s.col_job[c])
            j = int(s.col_slice[c])
            path = s.paths[i][int(s.col_path[c])]
            grants.append(
                {
                    "job": s.jobs[i].id,
                    "path": list(path.nodes),
                    "slice": j,
                    "wavelengths": int(round(x[c])),
                }
            )
        save_json(
            {
                "mode": result.mode,
                "b_hat": result.b_hat,
                "b_final": result.b_final,
                "extended_ends": {
                    str(job.id): job.end for job in s.jobs
                },
                "grants": grants,
            },
            args.output,
        )
        print(f"\nwrote extended schedule to {args.output}")
    return 0


def _print_simulation_summary(result, title: str) -> None:
    summary = summarize(result)
    table = Table(["metric", "value"], title=title)
    for name in (
        "num_jobs",
        "num_completed",
        "num_rejected",
        "num_expired",
        "acceptance_rate",
        "completion_rate",
        "deadline_rate",
        "delivered_volume",
        "offered_volume",
        "mean_response_time",
        "mean_lateness",
        "num_deadline_extensions",
        "num_scheduling_passes",
        "mean_solve_seconds",
        "mean_zstar",
    ):
        value = getattr(summary, name)
        table.add_row([name, round(value, 4) if isinstance(value, float) else value])
    print(table.render())


def _cmd_simulate(args) -> int:
    net = network_from_dict(load_json(args.network))
    jobs = _load_jobs(args.jobs)
    telemetry = _profile_telemetry(args)
    fault_schedule = None
    if args.faults:
        from .faults import parse_fault_spec

        # random: specs need the fault horizon; mirror Simulation.run's
        # default (latest deadline plus full RET headroom).
        fault_horizon = args.horizon
        if fault_horizon is None:
            fault_horizon = 11.0 * jobs.max_end()
        fault_schedule = parse_fault_spec(
            args.faults, net, seed=args.fault_seed, horizon=fault_horizon
        )
    solve_budget = None
    if args.solve_budget is not None:
        from .lp.solver import SolveBudget

        solve_budget = SolveBudget(args.solve_budget)
    control_policy = None
    if args.control_policy is not None:
        from .control import make_policy

        control_policy = make_policy(args.control_policy,
                                     seed=args.fault_seed)
    sim = Simulation(
        net,
        tau=args.tau,
        slice_length=args.slice_length,
        policy=args.policy,
        k_paths=args.k_paths,
        rejection=args.rejection,
        telemetry=telemetry,
        fault_schedule=fault_schedule,
        journal=args.journal,
        solve_budget=solve_budget,
        warm_start=not args.no_warm_start,
        control_policy=control_policy,
    )
    result = sim.run(jobs, horizon=args.horizon)
    _print_simulation_summary(result, f"simulation ({args.policy} policy)")

    if fault_schedule is not None:
        from .analysis import resilience_report

        baseline = None
        if args.fault_baseline:
            baseline = Simulation(
                net,
                tau=args.tau,
                slice_length=args.slice_length,
                policy=args.policy,
                k_paths=args.k_paths,
                rejection=args.rejection,
                warm_start=not args.no_warm_start,
            ).run(jobs, horizon=args.horizon)
        print()
        print(resilience_report(result, baseline).table().render())

    _print_profile(telemetry)

    if args.output:
        from .serialization import simulation_to_dict

        save_json(simulation_to_dict(result), args.output)
        print(f"\nwrote run log to {args.output}")
    return 0


def _cmd_resume(args) -> int:
    telemetry = _profile_telemetry(args)
    result = Simulation.resume(args.journal, telemetry=telemetry)
    _print_simulation_summary(result, f"resumed simulation ({args.journal})")

    _print_profile(telemetry)

    if args.output:
        from .serialization import simulation_to_dict

        save_json(simulation_to_dict(result), args.output)
        print(f"\nwrote run log to {args.output}")
    return 0


def _parse_crash_spec(spec: str):
    """``POINT@EPOCH`` → a one-shot :class:`CrashInjector`."""
    from .errors import ValidationError
    from .recovery import CrashInjector

    point, sep, epoch = spec.partition("@")
    if not sep:
        raise ValidationError(
            f"crash spec {spec!r} must look like 'pre-respond@2'"
        )
    try:
        at = int(epoch)
    except ValueError:
        raise ValidationError(
            f"crash spec {spec!r}: epoch {epoch!r} is not an integer"
        ) from None
    return CrashInjector(point, at)


def _cmd_serve(args) -> int:
    import asyncio

    from .recovery import SimulatedCrash, SolveBudget
    from .service import ClosedLoopDriver, ReservationService

    telemetry = _profile_telemetry(args)
    crash = _parse_crash_spec(args.crash) if args.crash else None
    solve_budget = (
        SolveBudget(args.solve_budget)
        if args.solve_budget is not None else None
    )

    if args.resume:
        service = ReservationService.resume(
            args.resume,
            telemetry=telemetry,
            crash_injector=crash,
            solve_budget=solve_budget,
        )
        print(
            f"recovered service from {args.resume}: epoch {service.epoch}, "
            f"{service.book.num_accepted} reservations committed"
        )
    else:
        if not args.network:
            print("error: serve needs --network (or --resume)",
                  file=sys.stderr)
            return 2
        net = network_from_dict(load_json(args.network))
        fault_schedule = None
        if args.faults:
            from .faults import parse_fault_spec

            horizon = 100.0 * args.tau
            if args.trace:
                horizon = max(horizon, 11.0 * _load_jobs(args.trace).max_end())
            fault_schedule = parse_fault_spec(
                args.faults, net, seed=args.fault_seed, horizon=horizon
            )
        service = ReservationService(
            net,
            tau=args.tau,
            slice_length=args.slice_length,
            k_paths=args.k_paths,
            queue_limit=args.queue_limit,
            rate=args.rate,
            burst=args.burst,
            journal=args.journal,
            solve_budget=solve_budget,
            crash_injector=crash,
            fault_schedule=fault_schedule,
            telemetry=telemetry,
        )

    try:
        if args.requests:
            records = load_json(args.requests)
            if not isinstance(records, list):
                records = [records]
            handles = [service.submit(record) for record in records]
            while not service.idle or service.queue_depth:
                asyncio.run(service.tick())
            for handle in handles:
                decision = handle.decision
                detail = getattr(decision, "reason", "") or (
                    f"[{getattr(decision, 'start', '')}, "
                    f"{getattr(decision, 'end', '')}]"
                )
                print(f"{decision.request_id}: {decision.kind} {detail}")
        if args.trace:
            jobs = _load_jobs(args.trace)
            driver = ClosedLoopDriver(
                service,
                jobs,
                retry_limit=args.retry_limit,
                negotiate_limit=args.negotiate_limit,
            )
            report = asyncio.run(driver.run())
            print(
                f"drove {len(jobs)} requests: {report.accepted} accepted, "
                f"{report.rejected} rejected, "
                f"{report.renegotiated} renegotiated, "
                f"{report.shed_retries} shed retries"
            )
        elif not args.requests:
            # No arrival source: drain whatever the journal carried over.
            while not service.idle:
                asyncio.run(service.tick())
    except SimulatedCrash as exc:
        service.close()
        print(f"simulated crash: {exc}", file=sys.stderr)
        if args.journal or args.resume:
            journal = args.journal or args.resume
            print(f"recover with: repro serve --resume {journal}",
                  file=sys.stderr)
        return 3

    print()
    print(service.stats.table().render())
    book = service.book
    print(
        f"\ncommitment book: {len(book.ledger)} decisions, "
        f"{book.num_accepted} reservations, {book.num_lost} lost, "
        f"digest {book.digest()[:16]}"
    )
    _print_profile(telemetry)

    if args.output:
        save_json(
            {"slo": service.stats.snapshot(), "book": book.to_dict(),
             "digest": book.digest()},
            args.output,
        )
        print(f"\nwrote service report to {args.output}")
    service.close()
    return 0


def _cmd_verify(args) -> int:
    from .verify.bench import DEFAULT_BENCH_PATH, write_bench
    from .verify.fuzz import run_fuzz
    from .verify.oracles import DEFAULT_GAP_BOUND

    if args.bench:
        path = args.output or DEFAULT_BENCH_PATH
        document = write_bench(path, repeats=args.repeats)
        table = Table(
            ["case", "seconds", "metrics"], title="benchmark micro-suite"
        )
        for name, case in document["cases"].items():
            metrics = ", ".join(
                f"{k}={v:g}" for k, v in case["metrics"].items()
            )
            table.add_row([name, case["seconds"], metrics])
        print(table.render())
        print(f"\nwrote benchmark trail to {path}")
        return 0

    if args.fuzz is not None:
        bound = args.gap_bound if args.gap_bound is not None else DEFAULT_GAP_BOUND
        summary = run_fuzz(
            args.fuzz, seed=args.seed, gap_bound=bound, jobs=args.workers
        )
        print(summary.render())
        if args.output:
            save_json(
                {
                    "seed": args.seed,
                    "count": args.fuzz,
                    "gap_bound": bound,
                    "ok": summary.ok,
                    "max_gap": summary.max_gap,
                    "failing_seeds": list(summary.failing_seeds),
                },
                args.output,
            )
            print(f"wrote fuzz summary to {args.output}")
        return 0 if summary.ok else 1

    if not (args.network and args.jobs and args.schedule):
        print(
            "error: verify needs --network, --jobs and --schedule "
            "(or one of --fuzz / --bench)",
            file=sys.stderr,
        )
        return 2

    from .serialization import report_to_dict
    from .timegrid import TimeGrid
    from .verify.checker import verify_schedule

    net = network_from_dict(load_json(args.network))
    jobs = _load_jobs(args.jobs)
    schedule = load_json(args.schedule)
    grid = TimeGrid.covering(jobs.max_end(), args.slice_length)
    report = verify_schedule(
        net,
        schedule,
        jobs=jobs,
        grid=grid,
        require_complete=args.complete or None,
    )
    print(report.render())
    if not report.ok:
        print()
        print(report.explain())
    if args.output:
        save_json(report_to_dict(report), args.output)
        print(f"\nwrote report to {args.output}")
    return 0 if report.ok else 1


def _cmd_fleet(args) -> int:
    from .parallel.fleet import TaskSpec, default_jobs, run_fleet

    jobs = args.jobs if args.jobs is not None else default_jobs()

    if args.what == "fuzz":
        from .verify.fuzz import run_fuzz
        from .verify.oracles import DEFAULT_GAP_BOUND

        bound = (
            args.gap_bound if args.gap_bound is not None else DEFAULT_GAP_BOUND
        )
        summary = run_fuzz(
            args.count,
            seed=args.seed,
            gap_bound=bound,
            oracle=not args.no_oracle,
            jobs=jobs,
            task_timeout=args.task_timeout,
        )
        print(summary.render())
        print(f"({jobs} worker{'s' if jobs != 1 else ''})")
        if args.output:
            save_json(
                {
                    "seed": args.seed,
                    "count": args.count,
                    "jobs": jobs,
                    "gap_bound": bound,
                    "ok": summary.ok,
                    "max_gap": summary.max_gap,
                    "failing_seeds": list(summary.failing_seeds),
                },
                args.output,
            )
            print(f"wrote fleet fuzz summary to {args.output}")
        return 0 if summary.ok else 1

    # experiments mode: one cell per named experiment / ablation.
    names = (
        sorted(EXPERIMENTS)
        if args.names == "all"
        else [n.strip() for n in args.names.split(",") if n.strip()]
    )
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiment(s) {unknown}; "
            f"available: {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    specs = [
        TaskSpec("experiment", {"name": name, "quick": args.quick}, label=name)
        for name in names
    ]
    results = run_fleet(specs, jobs=jobs, task_timeout=args.task_timeout)
    failed = []
    rows = []
    for res in results:
        if res.ok:
            print(res.value.table().render())
            print(f"({res.value.seconds:.1f}s)\n")
            rows.append(
                {
                    "experiment": res.value.experiment_id,
                    "seconds": res.value.seconds,
                    "ok": True,
                }
            )
        else:
            failed.append(res.label)
            print(f"[FAIL] {res.label}: {res.error_type}: {res.error}\n")
            rows.append({"experiment": res.label, "ok": False,
                         "error": res.error})
    print(
        f"{len(results)} experiment cells, {len(failed)} failed "
        f"({jobs} worker{'s' if jobs != 1 else ''})"
    )
    if args.output:
        save_json({"jobs": jobs, "cells": rows}, args.output)
        print(f"wrote fleet experiment summary to {args.output}")
    return 0 if not failed else 1


def _cmd_chaos(args) -> int:
    from .chaos import run_chaos

    targets = (
        ("sim", "serve", "fleet") if args.target == "all"
        else (args.target,)
    )
    report = run_chaos(
        seed=args.seed,
        spec=args.spec,
        targets=targets,
        workdir=args.workdir,
    )
    print(report.render())
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(report.to_json() + "\n")
        print(f"wrote chaos report to {args.output}")
    return 0 if report.ok else 1


def _cmd_policy(args) -> int:
    from .control import POLICY_NAMES, compare_policies
    from .errors import ValidationError

    # Only 'compare' exists today; argparse enforces the subcommand.
    names = tuple(
        name.strip() for name in args.policies.split(",") if name.strip()
    )
    for name in names:
        if name not in POLICY_NAMES:
            raise ValidationError(
                f"unknown policy {name!r}; known policies: "
                f"{', '.join(POLICY_NAMES)}"
            )
    comparison = compare_policies(
        names,
        seeds=args.seeds,
        k_paths=args.k_paths,
        allow_faults=not args.no_faults,
    )
    print(comparison.render())
    total = sum(r.epochs_verified for r in comparison.runs)
    print(f"\n{len(comparison.runs)} runs, {total} epochs checker-verified")
    if args.output:
        save_json(comparison.to_dict(), args.output)
        print(f"wrote comparison report to {args.output}")
    return 0


def _cmd_experiment(args) -> int:
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    results = []
    for name in names:
        result = run_experiment(name, quick=args.quick)
        results.append(result)
        print(result.table().render())
        print(f"({result.seconds:.1f}s)\n")
    if args.markdown:
        from .experiments.report import render_report

        from pathlib import Path

        Path(args.markdown).write_text(
            render_report(results, quick=args.quick) + "\n"
        )
        print(f"wrote markdown report to {args.markdown}")
    return 0


_COMMANDS = {
    "topology": _cmd_topology,
    "workload": _cmd_workload,
    "schedule": _cmd_schedule,
    "ret": _cmd_ret,
    "simulate": _cmd_simulate,
    "resume": _cmd_resume,
    "serve": _cmd_serve,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
    "fleet": _cmd_fleet,
    "chaos": _cmd_chaos,
    "policy": _cmd_policy,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro ... | head`); die
        # quietly like a well-behaved filter.  Point stdout at devnull
        # so the interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
