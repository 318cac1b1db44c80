"""Controller durability: epoch journaling, crash-recovery, budgets.

The paper's periodic controller holds its entire schedule state in
memory and re-derives it every epoch — so a crash loses everything, and
a slow solve blows through the epoch boundary it plans for.  This
package makes the controller durable and deadline-aware:

* :class:`EpochJournal` / :func:`read_journal` — a write-ahead JSONL
  commit log of per-epoch controller state, with CRC-protected lines,
  one fsynced append per commit and torn-tail recovery;
* :class:`CrashInjector` / :class:`SimulatedCrash` — deterministic
  process-death injection at named points of the epoch loop
  (:data:`CRASH_POINTS`), so recovery is testable the way
  :mod:`repro.faults` makes link failures testable;
* :class:`SolveBudget` (re-exported from :mod:`repro.lp.solver`) — the
  cooperative wall-clock watchdog whose exhaustion triggers the
  scheduler's graceful-degradation ladder instead of an exception.

Wired into :class:`repro.sim.simulator.Simulation` via ``journal=``,
``crash_injector=`` and ``solve_budget=``, and
``Simulation.resume(path)`` for the recovery side.  See
``docs/recovery.md`` for the journal format and semantics.
"""

from ..lp.solver import SolveBudget
from .crash import (
    CRASH_POINTS,
    SERVICE_CRASH_POINTS,
    CrashInjector,
    SimulatedCrash,
)
from .journal import SCHEMA_VERSION, EpochJournal, JournalReplay, read_journal

__all__ = [
    "SCHEMA_VERSION",
    "EpochJournal",
    "JournalReplay",
    "read_journal",
    "CRASH_POINTS",
    "SERVICE_CRASH_POINTS",
    "CrashInjector",
    "SimulatedCrash",
    "SolveBudget",
]
