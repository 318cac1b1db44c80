"""Solve telemetry: one scoped collector of timers, counters and records.

The pipeline never takes a collector as an argument.  Every layer that
measures something — :class:`~repro.lp.model.ProblemStructure`
assembly, :func:`~repro.lp.solver.solve_lp`, the LPDAR greedy pass, the
RET binary search, the epoch kernel, the reservation service — asks
:func:`current` for the collector installed around it and records there.
Entering a :class:`Telemetry` installs it for the enclosed code, so
profiling a run is one ``with`` block around it:

>>> from repro.obs import NULL_TELEMETRY, Telemetry, current
>>> current() is NULL_TELEMETRY
True
>>> with Telemetry() as telemetry:
...     with current().span("outer"):
...         with current().span("inner"):
...             current().count("events")
>>> telemetry.span_stats["outer.inner"].calls, telemetry.counters["events"]
(1, 1)
>>> current() is NULL_TELEMETRY
True

Design rules
------------

* **Zero-impact default.**  With no collector installed, :func:`current`
  returns the module-level :data:`NULL_TELEMETRY` singleton, whose every
  method is a no-op; code paths and outputs are bit-for-bit unchanged.
* **Observation only.**  A :class:`Telemetry` object never influences
  the computation it measures — it is written to, never read from, by
  the pipeline.
* **Context-scoped.**  The collector lives in a
  :class:`~contextvars.ContextVar`, not a module global: ``asyncio.run``
  copies it into the reservation service's tasks, it does not leak into
  other threads, and nested collectors restore the outer one on exit.
* **Plain-data export.**  :meth:`Telemetry.as_dict` returns nothing but
  dicts, lists, strings, ints and floats, so the result serializes with
  :mod:`json` as-is.

Spans nest: entering ``span("lp_solve")`` while ``span("stage2")`` is
open aggregates under the dotted path ``"stage2.lp_solve"``, so the same
leaf timer (e.g. every LP solve) is attributed to whichever stage
invoked it.
"""

from __future__ import annotations

import json
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span", "SpanStats", "Telemetry", "NullTelemetry", "NULL_TELEMETRY",
    "current",
]


@dataclass
class Span:
    """One live (or finished) timed section.

    Yielded by :meth:`Telemetry.span`; usable as a context manager only
    through that method.  After the ``with`` block exits, :attr:`elapsed`
    holds the section's wall time in seconds (while the block is still
    running it reads the time elapsed so far).
    """

    #: Dotted path of the span, e.g. ``"schedule.stage2.lp_solve"``.
    path: str
    _start: float = field(default=0.0, repr=False)
    _elapsed: float | None = field(default=None, repr=False)

    @property
    def elapsed(self) -> float:
        """Wall seconds: final once closed, running value while open."""
        if self._elapsed is None:
            return time.perf_counter() - self._start
        return self._elapsed

    def _close(self) -> float:
        self._elapsed = time.perf_counter() - self._start
        return self._elapsed


@dataclass
class SpanStats:
    """Aggregate timing of all spans sharing one dotted path."""

    calls: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    @property
    def mean(self) -> float:
        """Average seconds per call (0 when never called)."""
        return self.total / self.calls if self.calls else 0.0

    def _add(self, seconds: float) -> None:
        self.calls += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)


class _SpanContext:
    """Context manager pairing a Span with its owning Telemetry."""

    __slots__ = ("_telemetry", "_span")

    def __init__(self, telemetry: "Telemetry", span: Span) -> None:
        self._telemetry = telemetry
        self._span = span

    def __enter__(self) -> Span:
        self._span._start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._telemetry._exit_span(self._span)


class Telemetry:
    """Collects spans, counters and records for one measured run.

    Use it as a context manager to install it as the :func:`current`
    collector for the enclosed code; the previous collector is restored
    on exit.

    Attributes
    ----------
    span_stats:
        ``{dotted_path: SpanStats}`` — aggregated wall time per span
        path, nested paths joined with ``"."``.
    counters:
        ``{name: value}`` — monotone event counters
        (:meth:`count`).
    records:
        List of per-event dicts appended by :meth:`record`; every dict
        carries at least a ``"kind"`` key (e.g. ``"lp_solve"``,
        ``"ret_probe"``, ``"greedy_adjust"``).
    """

    #: Whether this object actually stores anything (False on the no-op).
    enabled: bool = True

    def __init__(self) -> None:
        self.span_stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.records: list[dict] = []
        self._stack: list[Span] = []
        self._tokens: list = []

    def __enter__(self) -> "Telemetry":
        self._tokens.append(_CURRENT.set(self))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _CURRENT.reset(self._tokens.pop())

    # ------------------------------------------------------------------
    # Collection API (what the pipeline calls)
    # ------------------------------------------------------------------
    def span(self, name: str):
        """Open a named, nestable timer; use as ``with telemetry.span(...)``.

        The yielded :class:`Span` exposes ``elapsed`` after the block, so
        callers that need the duration themselves (e.g. the simulator's
        ``SchedulingPass`` event) read it instead of re-timing.
        """
        path = f"{self._stack[-1].path}.{name}" if self._stack else name
        span = Span(path=path)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _exit_span(self, span: Span) -> None:
        seconds = span._close()
        # Close any dangling children first (exception unwound past them).
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self.span_stats.setdefault(span.path, SpanStats())._add(seconds)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def record(self, kind: str, **fields) -> None:
        """Append one structured event record of the given ``kind``."""
        self.records.append({"kind": kind, **fields})

    # ------------------------------------------------------------------
    # Query / export API (what reports call)
    # ------------------------------------------------------------------
    def seconds(self, path: str) -> float:
        """Total wall seconds aggregated under one dotted span path."""
        stats = self.span_stats.get(path)
        return stats.total if stats else 0.0

    def records_of(self, kind: str) -> list[dict]:
        """All records of one kind, in collection order."""
        return [r for r in self.records if r["kind"] == kind]

    def as_dict(self) -> dict:
        """Plain-data view: spans, counters and records, JSON-ready."""
        return {
            "spans": {
                path: {
                    "calls": s.calls,
                    "total_seconds": s.total,
                    "mean_seconds": s.mean,
                    "min_seconds": s.min if s.calls else 0.0,
                    "max_seconds": s.max,
                }
                for path, s in sorted(self.span_stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "records": list(self.records),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The :meth:`as_dict` view serialized as JSON text."""
        return json.dumps(self.as_dict(), indent=indent)

    def render(self) -> str:
        """Compact ASCII report: spans, LP solves, RET trace, degraded
        solves and counters."""
        from ..analysis.reporting import Table

        sections: list[str] = []

        if self.span_stats:
            spans = Table(
                ["span", "calls", "total (s)", "mean (s)", "max (s)"],
                title="telemetry — spans",
            )
            for path, s in sorted(self.span_stats.items()):
                spans.add_row(
                    [
                        path,
                        s.calls,
                        round(s.total, 4),
                        round(s.mean, 4),
                        round(s.max, 4),
                    ]
                )
            sections.append(spans.render())

        lp_solves = self.records_of("lp_solve")
        if lp_solves:
            table = Table(
                ["label", "backend", "vars", "rows", "nnz", "iters",
                 "status", "seconds"],
                title="telemetry — LP solves",
            )
            for r in lp_solves:
                table.add_row(
                    [
                        r.get("label") or "-",
                        r["backend"],
                        r["num_vars"],
                        r["num_rows"],
                        r["nnz"],
                        r["iterations"],
                        r["status"],
                        round(r["seconds"], 4),
                    ]
                )
            sections.append(table.render())

        probes = self.records_of("ret_probe")
        if probes:
            table = Table(
                ["phase", "b", "feasible", "vars", "iters"],
                title="telemetry — RET binary-search trace",
            )
            for r in probes:
                table.add_row(
                    [
                        r["phase"],
                        round(r["b"], 6),
                        r["feasible"],
                        r["num_cols"],
                        r["iterations"] if r["feasible"] else "-",
                    ]
                )
            sections.append(table.render())

        greedy = self.records_of("greedy_adjust")
        if greedy:
            table = Table(
                ["visited triples", "grants", "granted wavelengths"],
                title="telemetry — greedy adjustment (Algorithm 1)",
            )
            for r in greedy:
                table.add_row(
                    [r["visited_triples"], r["grants"], r["granted_wavelengths"]]
                )
            sections.append(table.render())

        degraded = self.records_of("degraded_solve")
        if degraded:
            table = Table(
                ["level", "reason"],
                title="telemetry — degraded solves (budget ladder)",
            )
            for r in degraded:
                table.add_row([r["level"], r["reason"]])
            sections.append(table.render())

        if self.counters:
            table = Table(["counter", "value"], title="telemetry — counters")
            for name, value in sorted(self.counters.items()):
                table.add_row([name, value])
            sections.append(table.render())

        if not sections:
            return "telemetry — empty (no spans, records or counters)"
        return "\n\n".join(sections)


class NullTelemetry(Telemetry):
    """The do-nothing collector :func:`current` returns when none is installed.

    Spans still yield a working :class:`Span` (some callers read
    ``elapsed`` regardless of profiling — two ``perf_counter`` calls),
    but nothing is aggregated or stored, so the default pipeline keeps
    its exact pre-telemetry behaviour.
    """

    enabled = False

    def span(self, name: str):
        return _NullSpanContext()

    def count(self, name: str, n: float = 1) -> None:
        pass

    def record(self, kind: str, **fields) -> None:
        pass


class _NullSpanContext:
    """Span context that times but never stores."""

    __slots__ = ("_span",)

    def __enter__(self) -> Span:
        self._span = Span(path="", _start=time.perf_counter())
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span._close()


#: Shared no-op instance: what :func:`current` returns when no collector
#: is installed.
NULL_TELEMETRY = NullTelemetry()

_CURRENT: ContextVar[Telemetry] = ContextVar(
    "repro_telemetry", default=NULL_TELEMETRY
)


def current() -> Telemetry:
    """The collector installed around the caller, else :data:`NULL_TELEMETRY`."""
    return _CURRENT.get()
