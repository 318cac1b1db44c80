"""Overload and load-shedding tests for the reservation service.

Acceptance criterion: under a 10x burst the arrival queue stays
bounded (no unbounded memory), the excess gets explicit
``Rejected(reason="overload")`` responses (never silence), and the
token-bucket guard caps how many decisions one epoch attempts.  A
decision deadline that expires during admission accepts only what the
probe proved and rejects the rest with ``REASON_DEADLINE``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Job, JobSet
from repro.errors import BudgetExceededError
from repro.lp.solver import SolveBudget
from repro.network import topologies
from repro.service import (
    REASON_DEADLINE,
    REASON_OVERLOAD,
    Accepted,
    Rejected,
    ReservationService,
    drive,
)


@pytest.fixture
def net():
    return topologies.ring(4, capacity=2)


def _request(net, rid, start=0.0, end=30.0):
    return {
        "id": rid,
        "source": net.nodes[rid % 4],
        "dest": net.nodes[(rid + 2) % 4],
        "size": 1.0,
        "start": start,
        "end": end,
    }


def test_queue_stays_bounded_under_10x_burst(net):
    queue_limit = 16
    burst = 10 * queue_limit
    service = ReservationService(net, queue_limit=queue_limit, rate=8.0)
    handles = [service.submit(_request(net, i)) for i in range(burst)]

    # The queue never exceeded its bound; everything beyond it was shed
    # immediately with an explicit overload rejection.
    assert service.queue_depth <= queue_limit
    shed = [h for h in handles if h.done]
    assert len(shed) == burst - queue_limit
    for handle in shed:
        assert isinstance(handle.decision, Rejected)
        assert handle.decision.reason == REASON_OVERLOAD
    assert service.stats.counters["shed"] == burst - queue_limit
    service.close()


def test_token_bucket_caps_decisions_per_epoch(net):
    service = ReservationService(net, queue_limit=64, rate=4.0, burst=4.0)
    handles = [service.submit(_request(net, i)) for i in range(12)]
    decisions = asyncio.run(service.tick())

    # Exactly `burst` admission probes ran; the rest were shed, not
    # silently deferred (memoryless shedding keeps the journal and the
    # queue from growing with offered load).
    assert len(decisions) == 4
    resolved = [h.decision for h in handles if h.done]
    assert len(resolved) == 12
    overloaded = [
        d for d in resolved
        if isinstance(d, Rejected) and d.reason == REASON_OVERLOAD
    ]
    assert len(overloaded) == 8
    service.close()


def test_every_submission_gets_exactly_one_response(net):
    """No request is ever silently dropped, even at 10x overload."""
    queue_limit = 8
    service = ReservationService(
        net, queue_limit=queue_limit, rate=4.0, burst=4.0
    )
    handles = [service.submit(_request(net, i)) for i in range(80)]
    for _ in range(3):
        asyncio.run(service.tick())
    assert all(h.done for h in handles)
    kinds = [h.decision.kind for h in handles]
    assert kinds.count("accept") + kinds.count("reject") == 80
    service.close()


def test_bucket_refills_across_epochs(net):
    service = ReservationService(net, queue_limit=4, rate=2.0, burst=2.0)
    first = service.submit(_request(net, 0))
    second = service.submit(_request(net, 1))
    third = service.submit(_request(net, 2))
    asyncio.run(service.tick())
    # Two tokens: first two decided, third shed.
    assert isinstance(first.decision, Accepted)
    assert isinstance(second.decision, Accepted)
    assert isinstance(third.decision, Rejected)
    assert third.decision.reason == REASON_OVERLOAD

    # Next epoch the bucket has refilled: a retry goes through.
    retry = service.submit(
        {**_request(net, 2), "arrival": service.now}
    )
    asyncio.run(service.tick())
    assert isinstance(retry.decision, Accepted)
    service.close()


def test_closed_loop_burst_eventually_admits_everything(net):
    """With retrying clients, a 10x burst drains over multiple epochs:
    every request is eventually decided on capacity, not on luck."""
    jobs = JobSet(
        [
            # Windows long enough that capped-backoff retries land
            # before the deadline (a short window turns the final
            # retry into a correct, explicit rejection instead).
            Job(id=i, source=net.nodes[i % 4], dest=net.nodes[(i + 2) % 4],
                size=0.5, start=0.0, end=200.0)
            for i in range(40)
        ]
    )
    service = ReservationService(net, queue_limit=64, rate=4.0, burst=4.0)
    report = drive(service, jobs, retry_limit=20)
    assert report.shed_retries > 0
    assert report.accepted == 40
    assert service.stats.counters["shed"] > 0
    service.close()


def test_journal_does_not_grow_with_shed_load(net, tmp_path):
    """Memoryless shedding: overload responses are never journaled, so
    journal size tracks decisions, not offered load."""
    path = tmp_path / "svc.jsonl"
    service = ReservationService(
        net, queue_limit=4, rate=2.0, burst=2.0, journal=str(path)
    )
    for i in range(50):
        service.submit(_request(net, i))
    asyncio.run(service.tick())
    service.close()

    lines = path.read_text().strip().splitlines()
    # Header + one tick entry, regardless of the 48 sheds.
    assert len(lines) == 2
    assert service.stats.counters["shed"] == 48


class _CountdownBudget(SolveBudget):
    """A budget that expires at its ``allowed + 1``-th check each epoch.

    Counting checks instead of seconds makes the expiry land at the
    same solve on every host.
    """

    def __init__(self, allowed: int) -> None:
        super().__init__(3600.0)
        self.allowed = allowed
        self.checks = 0

    def restart(self) -> "SolveBudget":
        self.checks = 0
        return super().restart()

    def check(self, where: str = "solve") -> None:
        self.checks += 1
        if self.checks > self.allowed:
            raise BudgetExceededError(
                f"countdown budget spent at {where!r}", where=where
            )


def test_deadline_during_admission_accepts_only_the_proven_prefix():
    # One link of capacity 1 over a 4-slice window: two size-2 requests
    # fit, four do not.  The probe solves the full batch (Z* = 0.5),
    # proves the first two, and the budget dies before it probes three.
    net = topologies.line(2, capacity=1, wavelength_rate=1.0)
    service = ReservationService(
        net, queue_limit=8, rate=8.0, burst=8.0,
        solve_budget=_CountdownBudget(allowed=2),
    )
    handles = [
        service.submit({"id": f"r{i}", "source": net.nodes[0],
                        "dest": net.nodes[1], "size": 2.0,
                        "start": 0.0, "end": 4.0})
        for i in range(4)
    ]
    decisions = asyncio.run(service.tick())

    assert sorted(str(d.request_id) for d in decisions) == [
        "r0", "r1", "r2", "r3"
    ]
    assert all(h.done for h in handles)
    assert [h.decision.kind for h in handles] == [
        "accept", "accept", "reject", "reject"
    ]
    assert all(h.decision.reason == REASON_DEADLINE for h in handles[2:])
    assert service.stats.counters["degraded_decisions"] == 2
    assert sorted(service.book.reservations) == ["r0", "r1"]
    service.close()
