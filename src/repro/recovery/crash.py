"""Deterministic crash injection for the controller loop.

Modeled on :mod:`repro.faults` — but where a fault schedule breaks the
*network*, a :class:`CrashInjector` kills the *controller*, at one of
the named points in the epoch loop where a real process death would
leave meaningfully different on-disk state:

``pre-solve``
    Before the epoch's admission/scheduling pass.  Nothing from this
    epoch exists anywhere; recovery replays the epoch from scratch.
``post-solve``
    After the schedule is computed but before any volume is delivered.
    The solve's work is lost; recovery recomputes the same schedule
    (solves are deterministic for identical inputs).
``pre-commit``
    After the epoch executed (in-memory job state mutated) but before
    the journal append.  The journal still holds the *previous* epoch;
    recovery replays this one.
``post-commit``
    Right after the journal append.  Recovery continues from exactly
    the next epoch — the no-repeated-work case.
``mid-journal``
    During the journal append itself: the entry is written *torn*
    (truncated mid-line, via
    :meth:`~repro.recovery.journal.EpochJournal.append_torn`) before
    the crash, exercising the reader's corrupt-tail recovery.

The reservation service (:mod:`repro.service`) runs a different loop —
batch, decide, journal, respond — with its own meaningfully-distinct
death sites (:data:`SERVICE_CRASH_POINTS`):

``pre-batch``
    Before the tick touches anything.  Queued requests are still
    undecided; resume re-collects the same batch.
``post-solve``
    After decisions and the epoch schedule are computed but before the
    journal append.  All of the tick's work is lost and replayed.
``pre-respond``
    After the batch record is journaled but before any response is
    released.  The decisions are durable yet unseen — resume must
    surface them exactly once, not recompute them.
``post-journal``
    After responses are released (the tick fully committed).  Resume
    continues from the next tick with nothing repeated.

(Both loops append through the same journal, so the simulator's
``mid-journal`` torn-tail point covers the torn append for both.)

The injector is one-shot: it fires the first time the run reaches its
``(point, epoch)`` and never again, so a resumed run sails past the
same spot.
"""

from __future__ import annotations

from ..errors import ReproError, ValidationError

__all__ = [
    "CRASH_POINTS",
    "SERVICE_CRASH_POINTS",
    "SimulatedCrash",
    "CrashInjector",
]

#: Every named controller-loop crash point, in loop order.
CRASH_POINTS = (
    "pre-solve",
    "post-solve",
    "pre-commit",
    "post-commit",
    "mid-journal",
)

#: Reservation-service tick crash points, in tick order.  ``post-solve``
#: is shared with :data:`CRASH_POINTS` (same meaning in both loops).
SERVICE_CRASH_POINTS = (
    "pre-batch",
    "post-solve",
    "pre-respond",
    "post-journal",
)

#: Every crash point any loop understands.
_ALL_POINTS = CRASH_POINTS + tuple(
    p for p in SERVICE_CRASH_POINTS if p not in CRASH_POINTS
)


class SimulatedCrash(ReproError, RuntimeError):
    """An injected controller death (stands in for ``kill -9``).

    Raised by :class:`CrashInjector` out of :meth:`Simulation.run
    <repro.sim.simulator.Simulation.run>`; deliberately *not* caught
    anywhere inside the simulator, exactly like a real crash.
    """

    def __init__(self, message: str, point: str, epoch: int) -> None:
        super().__init__(message)
        #: The :data:`CRASH_POINTS` name that fired.
        self.point = point
        #: Epoch index the run died in.
        self.epoch = epoch


class CrashInjector:
    """Kill the run at a named point of a chosen epoch, exactly once.

    Parameters
    ----------
    point:
        One of :data:`CRASH_POINTS` or :data:`SERVICE_CRASH_POINTS`.
    epoch:
        Epoch index (scheduling passes count from 0) to die in.
    """

    def __init__(self, point: str, epoch: int = 0) -> None:
        if point not in _ALL_POINTS:
            raise ValidationError(
                f"unknown crash point {point!r}; pick one of "
                f"{', '.join(_ALL_POINTS)}"
            )
        if int(epoch) != epoch or epoch < 0:
            raise ValidationError(
                f"crash epoch must be a non-negative integer, got {epoch!r}"
            )
        self.point = point
        self.epoch = int(epoch)
        #: Set once the injector has killed a run.
        self.fired = False

    def should_fire(self, point: str, epoch: int) -> bool:
        """Whether reaching ``(point, epoch)`` should crash the run."""
        return (
            not self.fired and point == self.point and epoch == self.epoch
        )

    def fire(self, point: str, epoch: int) -> None:
        """Mark the injector spent and raise :class:`SimulatedCrash`."""
        self.fired = True
        raise SimulatedCrash(
            f"injected controller crash at {point!r} in epoch {epoch}",
            point=point,
            epoch=epoch,
        )

    def __repr__(self) -> str:
        state = "fired" if self.fired else "armed"
        return f"CrashInjector({self.point!r}, epoch={self.epoch}, {state})"
