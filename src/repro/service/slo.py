"""Service-level objective counters and latency percentiles.

Modeled on the Clockwork controller's SLO instrumentation
(SNIPPETS.md §2): the service keeps cheap in-process counters plus a
decision-latency reservoir, and renders them as a snapshot dict (for
``BENCH_service.json``) or a table (for ``repro serve``).  Latencies
are *wall-clock* submit→respond times — observational only, never
journaled, so they cannot perturb crash-recovery determinism.
"""

from __future__ import annotations

import time

from ..analysis.reporting import Table
from ..obs import current

__all__ = ["ServiceStats"]

#: Cap on retained latency samples; beyond it the reservoir keeps every
#: k-th sample (deterministic decimation, good enough for p50/p99 while
#: bounding memory under million-request streams).
_MAX_SAMPLES = 65536


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty reservoir."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


class ServiceStats:
    """Counters + latency reservoir behind the service's SLO surface."""

    _COUNTERS = (
        "submitted",
        "decided",
        "accepted",
        "rejected",
        "negotiated",
        "shed",
        "invalid",
        "duplicate_submissions",
        "degraded_decisions",
        "voided",
        "renegotiations",
        "completed",
        "expired",
        "ticks",
    )

    def __init__(self) -> None:
        self.counters: dict[str, int] = dict.fromkeys(self._COUNTERS, 0)
        self._latencies: list[float] = []
        self._decimation = 1
        self._skipped = 0
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        current().count(f"service_{name}", n)

    def observe_latency(self, seconds: float) -> None:
        """Record one submit→respond decision latency."""
        self._skipped += 1
        if self._skipped < self._decimation:
            return
        self._skipped = 0
        self._latencies.append(seconds)
        if len(self._latencies) >= _MAX_SAMPLES:
            # Halve the reservoir, double the stride: bounded memory.
            self._latencies = self._latencies[::2]
            self._decimation *= 2

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def snapshot(self) -> dict:
        """The SLO surface as a plain dict."""
        c = self.counters
        elapsed = max(self.elapsed, 1e-9)
        responded = c["decided"] + c["shed"] + c["invalid"]
        return {
            **c,
            "admissions_per_sec": c["accepted"] / elapsed,
            "decisions_per_sec": responded / elapsed,
            "p50_decision_latency_s": _percentile(self._latencies, 0.50),
            "p99_decision_latency_s": _percentile(self._latencies, 0.99),
            "shed_rate": c["shed"] / max(c["submitted"], 1),
            "degraded_decision_rate": (
                c["degraded_decisions"] / max(responded, 1)
            ),
            "elapsed_s": elapsed,
        }

    def table(self) -> Table:
        table = Table(["slo", "value"], title="reservation service SLOs")
        for name, value in self.snapshot().items():
            table.add_row(
                [name, round(value, 6) if isinstance(value, float) else value]
            )
        return table

    def __repr__(self) -> str:
        c = self.counters
        return (
            f"ServiceStats(decided={c['decided']}, shed={c['shed']}, "
            f"accepted={c['accepted']})"
        )
