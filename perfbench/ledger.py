"""The traced run's layer ledger: spans recorded from outside the program.

:class:`Tracer` replaces public callables of the ``repro`` package at the
sites the controller reaches them through (module attributes and class
methods), records one span per call, and puts every original back on
:meth:`Tracer.restore`.  Nothing inside ``src/`` changes; the untraced run
never installs a wrapper.

A span is ``[name, start, end, parent, epoch]``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``epoch`` the ledger epoch that
was open when the span started.  A ledger epoch is the interval between
two consecutive :meth:`Tracer.close_epoch` stamps, so the epochs tile the
whole timed run.  A span's *self time* is its duration minus the durations
of its direct children; per epoch, the self times of all spans plus the
unattributed remainder add up to the epoch's time exactly, and
:func:`build_ledger` checks that every span lies inside its epoch and that
no remainder is negative.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: The benchmark's one clock: wall time.  Spans, epochs and runs all read
#: it, so a layer's time includes what it spends off the CPU (the journal's
#: fsync waits, and any time the hypervisor steals from the guest).
clock = perf_counter

#: Slack for comparing clock stamps taken by different frames.
_CLOCK_EPS = 1e-6


def _wchar() -> int:
    """Bytes this process has passed to write() so far (Linux procfs)."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar field")


def _lp_sizes(problem) -> tuple[int, int, int]:
    """(rows, cols, nnz) of a ``repro.lp.solver.LinearProgram``."""
    blocks = [b for b in (problem.a_ub, problem.a_eq) if b is not None]
    return (sum(b.shape[0] for b in blocks), problem.num_vars,
            sum(int(b.nnz) for b in blocks))


class Tracer:
    """In-memory span recorder over wrapped ``repro`` callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stamps: list[float] = []
        self._stack: list[int] = []
        self._epoch = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), None, parent, self._epoch])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def start(self) -> float:
        """Mark the start of the timed run (the first epoch's opening)."""
        t = clock()
        self.stamps.append(t)
        return t

    def close_epoch(self, t: float) -> None:
        """Close the current ledger epoch at clock time ``t``."""
        self.stamps.append(t)
        self._epoch += 1

    # -- wrapping -------------------------------------------------------
    def _install(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, calls: str | None = None,
             sizes=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        Each call adds one to the ``calls`` counter (``<name>.calls`` by
        default); ``sizes(args, kwargs)`` optionally returns a mapping of
        further counters to add.
        """
        original = getattr(owner, attr)
        calls = calls or name + ".calls"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.counts[calls] += 1
            if sizes is not None:
                tracer.counts.update(sizes(args, kwargs))
            index = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        self._install(owner, attr, traced)

    def count(self, owner, attr: str, counter, hit=None) -> None:
        """Count calls of ``owner.attr`` (no span): ``counter`` per call,
        or per call whose result satisfies ``hit(result)``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if hit is None or hit(result):
                tracer.counts[counter] += 1
            return result

        self._install(owner, attr, counted)

    def restore(self) -> None:
        """Put every wrapped callable back, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- the repro layers -----------------------------------------------
    def install_layers(self) -> None:
        """Wrap each layer's public entry points at their import sites."""
        # import_module, not ``import a.b as m``: packages re-export
        # functions that shadow their submodules (``repro.core.lpdar``).
        (kernel, lpdar, ret, scheduler, stage2, throughput, backend, engine,
         layout, topology, journal, service, simulator, checker) = (
            importlib.import_module("repro." + name) for name in (
                "control.kernel", "core.lpdar", "core.ret", "core.scheduler",
                "core.stage2", "core.throughput", "engine.backend",
                "engine.engine", "engine.layout", "engine.topology",
                "recovery.journal", "service.core", "sim.simulator",
                "verify.checker"))

        self.span(topology.TopologyLayer, "path_sets", "paths")
        # Pairs routed: every pair a path_sets call had to hand to Yen.
        routed = topology.build_path_sets
        tracer = self

        @functools.wraps(routed)
        def route(network, pairs, *args, **kwargs):
            tracer.counts["paths.pairs_routed"] += len(pairs)
            return routed(network, pairs, *args, **kwargs)

        self._install(topology, "build_path_sets", route)

        self.span(engine.ModelEngine, "structure", "engine.structure",
                  calls="engine.structure_calls")
        self.count(layout, "patch_structure", "engine.patch_hits",
                   hit=lambda result: result is not None)
        self.count(layout, "ProblemStructure", "engine.cold_builds")
        self._wrap_cached_solve(engine.ModelEngine)

        def lp_sizes(args, kwargs):
            rows, cols, nnz = _lp_sizes(args[0] if args else kwargs["problem"])
            return {"lp.rows": rows, "lp.cols": cols, "lp.nnz": nnz}

        for module in (engine, stage2, throughput, ret):
            self.span(module, "solve_lp", "lp", calls="lp.solves",
                      sizes=lp_sizes)
        self.span(backend.HighsBackend, "solve", "lp.highs")

        self.span(scheduler.Scheduler, "schedule", "scheduler")
        self.count(scheduler, "solve_stage2_lp", "scheduler.stage2_solves")
        for module in (scheduler, ret):
            self.span(module, "lpdar", "lpdar")
        for module in (lpdar, scheduler):
            self.span(module, "greedy_adjust", "lpdar.greedy")
            self.span(module, "discretize", "lpdar.discretize")

        for module in (simulator, service):
            self.span(module, "solve_ret", "ret")
            self.span(module, "admit_max_prefix", "admission")
        self.span(simulator, "admit_greedy", "admission")
        self.span(checker, "verify_assignment", "verify")
        self._wrap_journal(journal.EpochJournal)

        for method in ("crash_point", "restart_budget", "budget_for",
                       "detect_faults", "observe", "decide", "feedback",
                       "commit", "advance", "cache_delta"):
            self.span(kernel.EpochKernel, method, "control")

    def _wrap_cached_solve(self, engine_cls) -> None:
        """``engine.solve`` span; a call that reaches no LP solve is a
        memo hit (the memoized solution or infeasibility was replayed)."""
        original = engine_cls.cached_solve
        tracer = self

        @functools.wraps(original)
        def cached_solve(*args, **kwargs):
            tracer.counts["engine.cached_solves"] += 1
            before = tracer.counts["lp.solves"]
            index = tracer.open("engine.solve")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)
                if tracer.counts["lp.solves"] == before:
                    tracer.counts["engine.memo_hits"] += 1

        self._install(engine_cls, "cached_solve", cached_solve)

    def _wrap_journal(self, journal_cls) -> None:
        """``journal`` span plus the bytes each append passed to write()."""
        original = journal_cls.append
        tracer = self

        @functools.wraps(original)
        def append(*args, **kwargs):
            tracer.counts["journal.appends"] += 1
            index = tracer.open("journal")
            before = _wchar()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.counts["journal.bytes_written"] += _wchar() - before
                tracer.close(index)

        self._install(journal_cls, "append", append)


def build_ledger(tracer: Tracer) -> dict:
    """Per-epoch self time by span name, checked against epoch time.

    Returns ``{"self_s": {name: seconds}, "epoch_s": total epoch time,
    "unattributed_s": total remainder, "epochs": [per-epoch rows]}``.
    Raises ``RuntimeError`` when a span is still open, leaves its epoch,
    or when an epoch's self times exceed its time.
    """
    spans, stamps = tracer.spans, tracer.stamps
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _epoch in spans:
        if end is None:
            raise RuntimeError(f"span {name!r} never closed")
        if parent >= 0:
            child_time[parent] += end - start
    per_epoch: list[dict] = [defaultdict(float) for _ in range(len(stamps) - 1)]
    for i, (name, start, end, _parent, epoch) in enumerate(spans):
        lo, hi = stamps[epoch], stamps[epoch + 1]
        if start < lo - _CLOCK_EPS or end > hi + _CLOCK_EPS:
            raise RuntimeError(f"span {name!r} leaves ledger epoch {epoch}")
        per_epoch[epoch][name] += (end - start) - child_time[i]
    rows, totals = [], defaultdict(float)
    spent_total = unattributed_total = 0.0
    for epoch, selfs in enumerate(per_epoch):
        spent = stamps[epoch + 1] - stamps[epoch]
        attributed = sum(selfs.values())
        unattributed = spent - attributed
        if unattributed < -_CLOCK_EPS:
            raise RuntimeError(
                f"epoch {epoch}: self times {attributed:.6f}s exceed "
                f"epoch time {spent:.6f}s"
            )
        for name, seconds in selfs.items():
            totals[name] += seconds
        spent_total += spent
        unattributed_total += unattributed
        rows.append({"epoch": epoch, "epoch_s": spent,
                     "unattributed_s": unattributed, "self_s": dict(selfs)})
    return {"self_s": dict(totals), "epoch_s": spent_total,
            "unattributed_s": unattributed_total, "epochs": rows}
