"""Chaos injectors: faulty solver backends, journal write faults, and
fleet worker kills/hangs.

Three independent layers, each deterministic and call-indexed so the
same :class:`~repro.chaos.schedule.ChaosSchedule` replays the same
faults at the same places:

* :class:`FaultyBackend` wraps a registered
  :class:`~repro.engine.backend.SolverBackend` and misbehaves at the
  scheduled solve-call indices — raising, "timing out", or returning a
  subtly *wrong* solution (a corrupted optimal point).  The wrong mode
  exists to prove the verify layer's worth: the corruption (a negative
  allocation) is caught by :func:`repro.verify.verify_schedule` before
  any rounding or commit, on every instance.
* :class:`JournalFaultInjector` is the ``fault_injector`` callable the
  :class:`~repro.recovery.journal.EpochJournal` invokes before each
  atomic replace.  ENOSPC/EIO faults raise :class:`OSError` before any
  byte is written; the torn mode lands partial bytes of the *new* line
  on disk and then fails the acknowledgement — both surface as
  :class:`~repro.errors.JournalWriteError` with every previously
  committed line intact.
* :func:`chaos_fleet_probe` is the fleet task worker faults ride on:
  ``mode="kill"`` dies without a Python exception (``os._exit``),
  ``mode="hang"`` sleeps past any reasonable ``task_timeout``.
"""

from __future__ import annotations

import errno
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from ..engine.backend import get_backend, register_backend
from ..errors import SolverError
from .schedule import BackendFault, JournalFault

__all__ = [
    "FaultyBackend",
    "install_faulty_backend",
    "JournalFaultInjector",
    "chaos_fleet_probe",
]


class FaultyBackend:
    """A solver backend that misbehaves at scheduled call indices.

    Wraps an inner :class:`~repro.engine.backend.SolverBackend` and
    keeps its ``name``, so installing the wrapper in the registry
    (``replace=True``) routes every solve in the process through it.
    Calls are counted per wrapper instance; the fault map sends call
    ``k`` into one of three modes:

    * ``raise`` — a :class:`~repro.errors.SolverError`, as a numerical
      breakdown would produce.  The resilient solve chain retries.
    * ``timeout`` — a :class:`~repro.errors.SolverError` styled as a
      solver time-out.  Also retried.
    * ``wrong`` — the inner backend's solution with one entry negated:
      a subtly invalid point that still has plausible shape.  Negative
      allocations violate the nonnegativity invariant on *every*
      instance, so :func:`repro.verify.verify_schedule` rejects the
      solution deterministically before rounding or commit (the
      ``verify_solutions=`` gate in
      :class:`~repro.core.scheduler.Scheduler`).
    """

    def __init__(self, inner, faults: tuple[BackendFault, ...] = ()) -> None:
        self.inner = inner
        self.name = inner.name
        self._modes = {int(f.call): f.mode for f in faults}
        #: Total solve calls routed through this wrapper.
        self.calls = 0
        #: How many of them were faulted.
        self.injected = 0

    def solve(
        self,
        problem,
        *,
        telemetry=None,
        label=None,
        budget=None,
    ):
        call = self.calls
        self.calls += 1
        mode = self._modes.get(call)
        if mode == "raise":
            self.injected += 1
            raise SolverError(
                f"chaos: injected backend failure at solve call {call}",
                backend=self.name,
            )
        if mode == "timeout":
            self.injected += 1
            raise SolverError(
                f"chaos: injected solver time-out at solve call {call}",
                backend=self.name,
            )
        solution = self.inner.solve(
            problem,
            telemetry=telemetry,
            label=label,
            budget=budget,
        )
        if mode == "wrong":
            self.injected += 1
            return self._corrupt(solution)
        return solution

    @staticmethod
    def _corrupt(solution):
        """Negate the largest allocation entry: invalid on every instance.

        The final entry is excluded when the vector has more than one:
        stage-1 LPs append the throughput variable ``z`` there, and a
        negated ``z`` would poison ``zstar`` downstream instead of
        tripping the nonnegativity check on the allocation block.
        """
        x = np.array(solution.x, dtype=float, copy=True)
        if x.size == 0:
            return solution
        body = x[:-1] if x.size > 1 else x
        c = int(np.argmax(np.abs(body)))
        x[c] = -abs(x[c]) - 1.0
        return replace(solution, x=x)


@contextmanager
def install_faulty_backend(
    faults: tuple[BackendFault, ...], name: str = "highs"
):
    """Temporarily shadow backend ``name`` with a :class:`FaultyBackend`.

    Yields the wrapper (for its ``calls`` / ``injected`` counters) and
    restores the original backend on exit, even on error — the registry
    is process-global, so leaking a faulty backend would poison every
    later solve.
    """
    original = get_backend(name)
    wrapper = FaultyBackend(original, tuple(faults))
    register_backend(wrapper, replace=True)
    try:
        yield wrapper
    finally:
        register_backend(original, replace=True)


class JournalFaultInjector:
    """Deterministic write faults for :class:`EpochJournal` appends.

    Installed as ``journal.fault_injector``; the journal calls it as
    ``injector(path, content)`` immediately before each atomic replace.
    Write attempts are counted across the injector's whole lifetime —
    the chaos runner threads *one* instance through every run/resume of
    a composed timeline, so "fail write 2" means the second durable
    commit attempted anywhere in the timeline.  A failed write is not
    re-faulted on resume: the retry is a new, later write index.

    Modes (see :data:`~repro.chaos.schedule.JOURNAL_MODES`):

    * ``enospc`` / ``eio`` — raise :class:`OSError` before any byte is
      written; the journal wraps it into
      :class:`~repro.errors.JournalWriteError` and the on-disk file is
      untouched.
    * ``torn`` — return replacement content with the final (new) line
      cut in half: the partial bytes land durably, the append is never
      acknowledged, and recovery drops the torn tail.
    """

    def __init__(self, faults: tuple[JournalFault, ...] = ()) -> None:
        self._modes = {int(f.index): f.mode for f in faults}
        #: Write attempts seen so far (monotonic across run/resume).
        self.writes = 0
        #: Faults actually fired.
        self.injected = 0

    def __call__(self, path, content: str) -> str | None:
        index = self.writes
        self.writes += 1
        mode = self._modes.get(index)
        if mode is None:
            return None
        self.injected += 1
        if mode == "enospc":
            raise OSError(
                errno.ENOSPC,
                f"chaos: injected ENOSPC on journal write {index}",
            )
        lines = content.splitlines()
        if mode == "eio" or len(lines) < 2:
            # A torn header would make the journal unreadable, which is
            # not what a torn *append* means; degrade to a plain EIO.
            raise OSError(
                errno.EIO, f"chaos: injected EIO on journal write {index}"
            )
        # torn: every committed line survives byte-for-byte; only the
        # freshly appended line is cut mid-way, exactly like a crash
        # between write() and fsync() would leave it.
        tail = lines[-1][: max(1, len(lines[-1]) // 2)]
        return "\n".join(lines[:-1] + [tail])

    @property
    def exhausted(self) -> bool:
        """True once every scheduled fault has fired."""
        return self.injected >= len(self._modes)


def chaos_fleet_probe(
    seed: int = 0,
    mode: str | None = None,
    hang_seconds: float = 3600.0,
) -> dict:
    """Fleet task carrying worker faults (registered as ``chaos_probe``).

    ``mode=None`` returns a deterministic payload; ``"kill"`` dies
    without raising (the pool sees a dead worker, not a task error);
    ``"hang"`` sleeps far past any ``task_timeout=`` so the fleet's
    hang detection — not task logic — must reclaim the worker.
    """
    if mode == "kill":
        os._exit(17)
    if mode == "hang":
        time.sleep(float(hang_seconds))
    return {"seed": int(seed), "mode": mode}
