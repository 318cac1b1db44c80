"""The benchmark's workloads: inputs from a seed, and one timed run each.

Every workload is a list of *instances*.  Instance ``i`` of seed ``s`` draws
its jobs from ``numpy.random.default_rng([s, i, 0])`` through the public
generator (``repro.workload``), so the same ``(seed, instance)`` always
gives the same inputs, and a run pools several short instances instead of
one long one.
Short instances matter for the simulator: the ``extend`` policy stretches
*absolute* end times by ``(1 + b)``, so RET probes grow with simulated time
and a long run is not stationary.  Pooling also averages out how hard one
seed's draw happens to be.

Arrival times are a Poisson stream conditioned on its count (``rate *
horizon`` sorted uniform draws): the count of a plain Poisson draw alone
moved run time by more than the benchmark's bounds between seeds.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import thread_time

import numpy as np

from repro.errors import ReproError
from repro.network.topologies import abilene
from repro.service.core import ReservationService
from repro.service.driver import ClosedLoopDriver
from repro.service.requests import Accepted, DecisionHandle
from repro.sim.events import DegradedSolve, JobDeadlineExtended
from repro.sim.simulator import Simulation
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.jobs import JobSet

from ledger import clock


@dataclass
class RunRecord:
    """What one timed run of one instance produced."""

    #: Wall time of the run (see ``ledger.clock``) and its CPU time.
    run_s: float
    cpu_s: float
    epoch_s: list[float]
    attempted: int
    failed: int
    #: Pooled numerators and denominators of the quality metrics.
    quality: Counter
    #: Hash of the run's outputs (result records or the service book).
    fingerprint: str
    #: Work counts the workload guards check.
    guards: Counter
    #: Failed output checks, as messages.
    problems: list[str] = field(default_factory=list)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, 0])


def _booked_jobs(network, rng, rate, horizon, sizes, windows, lead) -> JobSet:
    """``rate * horizon`` jobs arriving over ``[0, horizon)``, each window
    opening ``lead`` slices after its arrival slice."""
    config = WorkloadConfig(
        size_low=sizes[0], size_high=sizes[1],
        window_slices_low=windows[0], window_slices_high=windows[1],
        start_slack_slices=0,
    )
    generator = WorkloadGenerator(network, config, rng=rng)
    arrivals = np.sort(rng.uniform(0.0, horizon, int(round(rate * horizon))))
    jobs = (generator.job(f"job-{k}", arrival=float(t))
            for k, t in enumerate(arrivals))
    return JobSet(replace(j, start=j.start + lead, end=j.end + lead)
                  for j in jobs)


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class SimWorkload:
    """``Simulation.controller()`` driven epoch by epoch.

    ``nominal_s`` is the wall time one run of an instance is budgeted.
    """

    def __init__(self, name, why, policy, rate, horizon, sizes, windows,
                 lead, nominal_s):
        self.name, self.why, self.policy = name, why, policy
        self.rate, self.horizon, self.sizes = rate, horizon, sizes
        self.windows, self.lead = windows, lead
        self.nominal_s = nominal_s

    def setup(self, seed: int, index: int, workdir: Path, horizon=None):
        """Build network and jobs; construct the run."""
        horizon = self.horizon if horizon is None else horizon
        network = abilene(capacity=1, wavelength_rate=20.0)
        jobs = _booked_jobs(network, _rng(seed, index), self.rate, horizon,
                            self.sizes, self.windows, self.lead)
        sim = Simulation(network, policy=self.policy, verify_epochs=True)
        return sim, jobs

    def run(self, instance, tracer=None) -> RunRecord:
        sim, jobs = instance
        _kernel, steps = sim.controller(jobs)
        send = steps.send
        if tracer is not None:
            def send(value, _send=steps.send):
                index = tracer.open("sim")
                try:
                    return _send(value)
                finally:
                    tracer.close(index)
        stamps: list[float] = []
        result, raised = None, None
        gc.collect()
        cpu0 = thread_time()
        t0 = tracer.start() if tracer is not None else clock()
        try:
            kind, _payload = send(None)
            while True:
                if kind == "outcome":
                    t = clock()
                    stamps.append(t)
                    if tracer is not None:
                        tracer.close_epoch(t)
                        tracer.counts["sim.epochs"] += 1
                kind, _payload = send(None)
        except StopIteration as stop:
            result = stop.value
        except ReproError as exc:
            raised = exc
        t_end = clock()
        cpu = thread_time() - cpu0
        if tracer is not None:
            tracer.close_epoch(t_end)
        epoch_s = list(np.diff([t0] + stamps))
        if result is None:
            return RunRecord(t_end - t0, cpu, epoch_s, len(stamps) + 1, 1,
                             Counter(), "", Counter(),
                             [f"{self.name}: epoch raised {raised!r}"])
        degraded = {e.epoch for e in result.events if isinstance(e, DegradedSolve)}
        admitted = [r for r in result.records
                    if r.status not in ("rejected", "pending")]
        quality = Counter(
            offered=jobs.total_size(),
            delivered=result.delivered_volume,
            admitted=len(admitted),
            met=sum(r.met_deadline for r in admitted),
            unique=len(jobs),
            accepted=len(admitted),
            decisions=len(result.records),
        )
        kinds = Counter(type(e) for e in result.events)
        guards = Counter(
            extended=kinds[JobDeadlineExtended],
            checker_reports=len(result.verification),
        )
        fingerprint = _digest([
            (r.job.id, r.status, r.remaining, r.effective_end,
             r.completion_time) for r in result.records
        ] + [len(result.events)])
        return RunRecord(t_end - t0, cpu, epoch_s, len(stamps), len(degraded),
                         quality, fingerprint, guards)

    def guard(self, quality: Counter, guards: Counter, counts) -> list[str]:
        """Why this workload was chosen, as checks on the work it did."""
        problems = []
        if guards["checker_reports"] == 0:
            problems.append("the schedule checker never ran")
        if self.policy == "extend":
            met = quality["met"] / quality["admitted"]
            if guards["extended"] == 0:
                problems.append("RET extended no job")
            if not 0.0 < met < 1.0:
                problems.append(f"deadline_met_share {met} is not in (0, 1)")
        return problems


class ServeWorkload:
    """``ReservationService`` with its journal, driven by ``ClosedLoopDriver``."""

    def __init__(self, name, why, rate, horizon, sizes, windows, lead,
                 bucket, queue, nominal_s):
        self.name, self.why = name, why
        self.rate, self.horizon, self.sizes = rate, horizon, sizes
        self.windows, self.lead = windows, lead
        self.bucket, self.queue = bucket, queue
        self.nominal_s = nominal_s

    def setup(self, seed: int, index: int, workdir: Path, horizon=None):
        horizon = self.horizon if horizon is None else horizon
        network = abilene(capacity=1, wavelength_rate=20.0)
        jobs = _booked_jobs(network, _rng(seed, index), self.rate, horizon,
                            self.sizes, self.windows, self.lead)
        journal = workdir / f"{self.name}-{seed}-{index}.jsonl"
        for stale in workdir.glob(journal.name + "*"):
            stale.unlink()
        service = ReservationService(network, queue_limit=self.queue,
                                     rate=self.bucket, journal=journal)
        return service, jobs, journal

    def run(self, instance, tracer=None) -> RunRecord:
        service, jobs, journal = instance
        driver = ClosedLoopDriver(service, jobs)
        ticks: list[float] = []
        handles: list[DecisionHandle] = []
        responses: Counter = Counter()
        tick, submit = service.tick, service.submit

        async def timed_tick():
            t = clock()
            index = tracer.open("service") if tracer is not None else None
            try:
                return await tick()
            finally:
                if tracer is not None:
                    tracer.close(index)
                e = clock()
                ticks.append(e - t)
                if tracer is not None:
                    tracer.close_epoch(e)

        def counted_submit(request):
            if tracer is None:
                handle = submit(request)
            else:
                tracer.counts["service.submits"] += 1
                index = tracer.open("service.submit")
                try:
                    handle = submit(request)
                finally:
                    tracer.close(index)
            handles.append(handle)
            return handle

        resolve = DecisionHandle.resolve

        def counted_resolve(handle, decision):
            responses[id(handle)] += 1
            return resolve(handle, decision)

        async def drive():
            cpu0 = thread_time()
            t0 = tracer.start() if tracer is not None else clock()
            report = await driver.run()
            return t0, report, clock(), thread_time() - cpu0

        service.tick, service.submit = timed_tick, counted_submit
        DecisionHandle.resolve = counted_resolve
        gc.collect()
        try:
            t0, report, t_end, cpu = asyncio.run(drive())
        finally:
            DecisionHandle.resolve = resolve
            del service.tick, service.submit
        if tracer is not None:
            tracer.close_epoch(t_end)
        service.close()

        failed = sum(1 for h in handles if responses[id(h)] != 1)
        problems = []
        if failed:
            problems.append(f"{failed} submissions did not get exactly one "
                            "response")
        live = service.book.digest()
        resumed = ReservationService.resume(journal)
        resumed.close()
        if resumed.book.digest() != live:
            problems.append("resume from the journal rebuilt a different book")
        for path in journal.parent.glob(journal.name + "*"):
            path.unlink()

        book = service.book.reservations.values()
        counters = service.stats.counters
        quality = Counter(
            offered=jobs.total_size(),
            delivered=sum(r.job.size - r.remaining for r in book),
            admitted=len(book),
            met=sum(r.status == "completed" for r in book),
            unique=len(jobs),
            accepted=sum(isinstance(d, Accepted)
                         for d in report.decisions.values()),
            decisions=counters["decided"],
        )
        guards = Counter({k: counters[k] for k in
                          ("negotiated", "voided", "shed", "decided", "ticks")})
        return RunRecord(t_end - t0, cpu, ticks, len(handles), failed, quality,
                         live, guards, problems)

    def guard(self, quality: Counter, guards: Counter, counts) -> list[str]:
        return [f"no request was {kind}" for kind in
                ("negotiated", "voided", "shed") if guards[kind] == 0]


WORKLOADS = {
    w.name: w for w in (
        SimWorkload(
            "sim-abilene-extend",
            "the paper's regime: stage-2 alpha escalation, RET, LPDAR, "
            "delta patching and the checker all work; paths cached after "
            "epoch 0",
            policy="extend", rate=2.0, horizon=20.0, sizes=(15.0, 60.0),
            windows=(2, 6), lead=3.0, nominal_s=1.3,
        ),
        ServeWorkload(
            "serve-abilene-journaled",
            "admission probes, RET counter-offers, voiding, sheds and the "
            "journal; the checker is off",
            rate=4.0, horizon=15.0, sizes=(10.0, 60.0), windows=(2, 6),
            lead=2.0, bucket=3.0, queue=64, nominal_s=1.3,
        ),
    )
}
