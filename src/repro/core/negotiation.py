"""Controller-user negotiation rounds (paper Sections II-B/II-C).

In overload the controller cannot grant every request as submitted; the
paper describes a *negotiation*: the network proposes modified terms —
reduced sizes (action ii, Remark 2) or extended end times (action iii,
RET) — "the users may modify the job parameters and re-submit the
modified requests", and "this negotiation process can be further
repeated."

:class:`NegotiationSession` makes that loop a first-class object:

1. ``propose_size_reduction()`` or ``propose_deadline_extension()``
   computes a per-job proposal from the current request set;
2. ``respond(job_id, ...)`` records each user's decision — accept the
   proposal, keep the original request, withdraw, or counter with their
   own size/end;
3. ``apply_responses()`` folds the decisions into a new request set and
   starts the next round;
4. the session converges when the current set is admissible
   (``Z* >= 1``) or every unhappy user has withdrawn.

The session is deliberately mechanism-agnostic about *user* behaviour —
callers script the responses (or wire them to a real request queue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable

from ..errors import ValidationError
from ..network.graph import Network
from ..workload.jobs import Job, JobSet
from .ret import RetMode, solve_ret
from .scheduler import Scheduler

__all__ = ["Proposal", "NegotiationRound", "NegotiationSession", "auto_negotiate"]

Node = Hashable


@dataclass(frozen=True)
class Proposal:
    """The controller's offer to one user.

    Exactly one of ``size`` / ``end`` differs from the original request
    (depending on which action the round proposed).

    Attributes
    ----------
    job_id:
        The request the proposal refers to.
    size:
        Proposed (possibly reduced) size.
    end:
        Proposed (possibly extended) end time.
    kind:
        ``"reduce_size"`` or ``"extend_end"``.
    """

    job_id: int | str
    size: float
    end: float
    kind: str


@dataclass
class NegotiationRound:
    """One proposal/response exchange."""

    index: int
    kind: str
    proposals: dict
    responses: dict = field(default_factory=dict)
    applied: bool = False


class NegotiationSession:
    """A multi-round negotiation over an overloaded request set.

    Parameters
    ----------
    network:
        The wavelength-switched network.
    jobs:
        The originally submitted requests.
    k_paths, alpha, slice_length:
        Scheduling parameters (forwarded to the underlying algorithms).
    """

    def __init__(
        self,
        network: Network,
        jobs: JobSet,
        k_paths: int = 4,
        alpha: float = 0.1,
        slice_length: float = 1.0,
    ) -> None:
        if len(jobs) == 0:
            raise ValidationError("nothing to negotiate over an empty job set")
        self.network = network
        self.k_paths = k_paths
        self.alpha = alpha
        self.slice_length = slice_length
        self._scheduler = Scheduler(
            network, k_paths=k_paths, alpha=alpha, slice_length=slice_length
        )
        self._current = jobs
        self._withdrawn: list[Job] = []
        self.rounds: list[NegotiationRound] = []

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def current_jobs(self) -> JobSet:
        """The request set as it stands after all applied rounds."""
        return self._current

    @property
    def withdrawn(self) -> tuple[Job, ...]:
        """Requests whose users walked away."""
        return tuple(self._withdrawn)

    def zstar(self) -> float:
        """Stage-1 throughput of the current set (inf when empty)."""
        if len(self._current) == 0:
            return float("inf")
        result = self._scheduler.schedule(self._current)
        return result.zstar

    def admissible(self, threshold: float = 1.0) -> bool:
        """Whether every current request fits in full (``Z* >= threshold``)."""
        return self.zstar() >= threshold - 1e-9

    # ------------------------------------------------------------------
    # Proposals
    # ------------------------------------------------------------------
    def propose_size_reduction(self) -> NegotiationRound:
        """Action (ii): offer each user the guaranteed size (Remark 2)."""
        self._check_no_open_round()
        result = self._scheduler.schedule(self._current)
        guaranteed = result.guaranteed_sizes("lpdar")
        proposals = {
            job.id: Proposal(
                job_id=job.id,
                size=float(max(guaranteed[i], 0.0)),
                end=job.end,
                kind="reduce_size",
            )
            for i, job in enumerate(self._current)
        }
        round_ = NegotiationRound(
            index=len(self.rounds), kind="reduce_size", proposals=proposals
        )
        self.rounds.append(round_)
        return round_

    def propose_deadline_extension(
        self, b_max: float = 10.0, delta: float = 0.1, mode: RetMode = "end_time"
    ) -> NegotiationRound:
        """Action (iii): offer the RET-extended end times (Algorithm 2)."""
        self._check_no_open_round()
        ret = solve_ret(
            self.network,
            self._current,
            slice_length=self.slice_length,
            k_paths=self.k_paths,
            b_max=b_max,
            delta=delta,
            mode=mode,
        )
        proposals = {
            job.id: Proposal(
                job_id=job.id,
                size=job.size,
                end=float(extended.end),
                kind="extend_end",
            )
            for job, extended in zip(self._current, ret.structure.jobs)
        }
        round_ = NegotiationRound(
            index=len(self.rounds), kind="extend_end", proposals=proposals
        )
        self.rounds.append(round_)
        return round_

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def respond(
        self,
        job_id: int | str,
        accept: bool = True,
        withdraw: bool = False,
        counter_size: float | None = None,
        counter_end: float | None = None,
    ) -> None:
        """Record one user's decision on the open round's proposal.

        ``accept=True`` takes the proposal as offered; ``withdraw=True``
        pulls the request entirely; a counter (size and/or end) replaces
        the proposal's terms.  ``accept=False`` with no counter keeps
        the *original* request unchanged (decline).
        """
        round_ = self._open_round()
        if job_id not in round_.proposals:
            raise ValidationError(f"no proposal outstanding for job {job_id!r}")
        if job_id in round_.responses:
            raise ValidationError(f"job {job_id!r} already responded this round")
        if withdraw and (counter_size is not None or counter_end is not None):
            raise ValidationError("a withdrawal cannot carry counter terms")
        round_.responses[job_id] = {
            "accept": bool(accept) and not withdraw,
            "withdraw": bool(withdraw),
            "counter_size": counter_size,
            "counter_end": counter_end,
        }

    def apply_responses(self, default_accept: bool = True) -> JobSet:
        """Fold the open round's responses into a new request set.

        Users who did not respond accept the proposal when
        ``default_accept`` (the paper's renegotiation presumes consent),
        otherwise they keep their original request.
        """
        round_ = self._open_round()
        new_jobs: list[Job] = []
        for job in self._current:
            proposal = round_.proposals[job.id]
            response = round_.responses.get(
                job.id,
                {"accept": default_accept, "withdraw": False,
                 "counter_size": None, "counter_end": None},
            )
            if response["withdraw"]:
                self._withdrawn.append(job)
                continue
            size, end = job.size, job.end
            if response["accept"]:
                size, end = proposal.size, proposal.end
            if response["counter_size"] is not None:
                size = float(response["counter_size"])
            if response["counter_end"] is not None:
                end = float(response["counter_end"])
            if size <= 1e-9:
                # A zero-size grant is a rejection in disguise.
                self._withdrawn.append(job)
                continue
            new_jobs.append(
                Job(
                    id=job.id,
                    source=job.source,
                    dest=job.dest,
                    size=size,
                    start=job.start,
                    end=end,
                    arrival=min(job.arrival, job.start),
                    weight=job.weight,
                )
            )
        round_.applied = True
        self._current = JobSet(new_jobs)
        return self._current

    # ------------------------------------------------------------------
    def _open_round(self) -> NegotiationRound:
        if not self.rounds or self.rounds[-1].applied:
            raise ValidationError(
                "no open round; call propose_size_reduction() or "
                "propose_deadline_extension() first"
            )
        return self.rounds[-1]

    def _check_no_open_round(self) -> None:
        if self.rounds and not self.rounds[-1].applied:
            raise ValidationError(
                "the previous round is still open; apply_responses() first"
            )


def auto_negotiate(
    session: NegotiationSession,
    strategy: str = "reduce_then_extend",
    max_rounds: int = 4,
    b_max: float = 10.0,
) -> JobSet:
    """Drive a session to convergence with compliant users.

    Models the happy path of the paper's negotiation loop: every user
    accepts every proposal.  ``strategy`` picks which actions the
    controller proposes:

    * ``"reduce_then_extend"`` — a size-reduction round, then deadline
      extensions if still inadmissible;
    * ``"reduce"`` / ``"extend"`` — only that action, repeated.

    Returns the final (admissible) request set; raises
    :class:`ValidationError` if ``max_rounds`` is exhausted without
    convergence (which, with compliant users, indicates an instance no
    proposal can fix — e.g. a job with no usable window at any ``b``).
    """
    if strategy not in ("reduce_then_extend", "reduce", "extend"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    for round_index in range(max_rounds):
        if session.admissible():
            return session.current_jobs
        if strategy == "reduce" or (
            strategy == "reduce_then_extend" and round_index == 0
        ):
            session.propose_size_reduction()
        else:
            session.propose_deadline_extension(b_max=b_max)
        session.apply_responses()
    if session.admissible():
        return session.current_jobs
    raise ValidationError(
        f"negotiation did not converge in {max_rounds} rounds "
        f"(Z* = {session.zstar():.3f})"
    )
