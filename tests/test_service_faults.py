"""The reservation service under link faults: plan on the snapshot, count
only what the links carried.

Both epoch drivers plan each epoch on the fault snapshot at its boundary
and void executed volume against the true fault timeline
(:meth:`repro.control.EpochKernel.planning_profile` and
:meth:`~repro.control.EpochKernel.realize`).  These tests pin the
service's side of that rule:

* volume granted over a link that fails mid-epoch is not delivered, and
  the voided reservation renegotiates its true residual;
* a degraded link is planned at its degraded capacity, not at its
  installed one;
* every allocation ``realize`` hands the service fits the capacity the
  fault timeline left on each executed slice.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import Simulation
from repro.control import EpochKernel
from repro.core.scheduler import Scheduler
from repro.faults import FaultSchedule, LinkDown, WavelengthDegrade
from repro.network.topologies import abilene
from repro.service import ClosedLoopDriver, ReservationService
from repro.sim import DeliveryLost, JobExpired
from repro.verify.checker import verify_assignment
from repro.verify.fuzz import make_scenario
from repro.workload.jobs import Job, JobSet


def _run_ticks(service, ticks: int) -> None:
    for _ in range(ticks):
        asyncio.run(service.tick())


def _request(rid, source, dest, size, start=0.0, end=8.0):
    return {"id": rid, "source": source, "dest": dest, "size": size,
            "start": start, "end": end}


class TestMidEpochLoss:
    """Seattle loses every link half a slice into the first epoch."""

    @pytest.fixture
    def setup(self):
        net = abilene(capacity=1, wavelength_rate=20.0)
        seattle = net.edge(0).source
        neighbours = sorted({e.target for e in net.edges if e.source == seattle})
        assert len(neighbours) == 3
        fs = FaultSchedule(net, [LinkDown(0.5, seattle, n) for n in neighbours])
        return net, fs, seattle, net.edge(0).target

    def test_simulator_loses_the_volume(self, setup):
        net, fs, source, dest = setup
        job = Job(id="r", source=source, dest=dest, size=80.0, start=0.0, end=8.0)
        result = Simulation(net, tau=2.0, fault_schedule=fs).run(JobSet([job]))
        assert any(isinstance(e, DeliveryLost) for e in result.events)
        assert any(isinstance(e, JobExpired) for e in result.events)
        assert result.records[0].status == "expired"
        assert result.delivered_volume == 0.0

    def test_service_counts_nothing_delivered_and_voids(self, setup):
        net, fs, source, dest = setup
        service = ReservationService(net, tau=2.0, fault_schedule=fs)
        service.submit(_request("r", source, dest, 80.0))
        _run_ticks(service, 6)

        res = service.book.reservations["r"]
        assert res.status == "voided"
        assert res.remaining == 80.0
        assert service._kernel.delivered_volume == 0.0
        assert service.stats.counters["voided"] == 1
        assert service.stats.counters["completed"] == 0
        # The voided residual re-entered admission as a renegotiation.
        assert service.book.decided("r~v1") is not None


class TestVoidAfterWindowCloses:
    """Seattle's links fail in the last slice of a two-slice window."""

    def test_voiding_is_terminal_and_keeps_the_residual(self):
        net = abilene(capacity=1, wavelength_rate=20.0)
        seattle = net.edge(0).source
        neighbours = sorted({e.target for e in net.edges if e.source == seattle})
        fs = FaultSchedule(net, [LinkDown(1.5, seattle, n) for n in neighbours])
        service = ReservationService(net, tau=2.0, fault_schedule=fs)
        service.submit(_request("r", seattle, net.edge(0).target, 100.0,
                                start=0.0, end=2.0))
        _run_ticks(service, 4)

        res = service.book.reservations["r"]
        assert res.status == "voided"
        assert res.remaining > 0  # the residual stays on the reservation
        # The window is gone, so nothing re-enters admission.
        assert service._internal == []
        assert not any("~v" in key for key in service.book.reservations)
        assert service.book.decided("r~v1") is None
        assert service.stats.counters["voided"] == 1
        assert service.stats.counters["renegotiations"] == 0
        assert service.stats.counters["rejected"] == 0


class TestDegradedLinkPlanning:
    """A link degraded to one wavelength is planned at one wavelength."""

    def test_plans_fit_the_degraded_capacity(self, monkeypatch):
        net = abilene(capacity=4, wavelength_rate=20.0)
        e = net.edge(0)
        fs = FaultSchedule(net, [WavelengthDegrade(0.5, e.source, e.target, 1)])
        plans = []
        original = Scheduler.schedule

        def spy(self, jobs, grid=None, *args, **kwargs):
            result = original(self, jobs, grid, *args, **kwargs)
            plans.append(result)
            return result

        monkeypatch.setattr(Scheduler, "schedule", spy)
        service = ReservationService(net, tau=1.0, fault_schedule=fs)
        for k in range(3):
            service.submit(_request(f"r{k}", e.source, e.target, 60.0))
        _run_ticks(service, 6)

        excess = []
        for result in plans:
            grid = result.structure.grid
            if grid.start < 1.0:
                continue  # planned before the degrade struck
            loads = result.structure.link_loads(np.asarray(result.x, float))
            for j in range(grid.num_slices):
                caps = fs.min_capacity_over(grid.slice_start(j), grid.slice_end(j))
                excess.append(float(np.max(loads[:, j] - caps)))
        assert excess, "no plan was made after the degrade"
        assert max(excess) <= 1e-9


def _realized_report(kernel, structure, executed, x):
    """Check a realized allocation against the fault ground truth."""
    cap = structure.capacity_grid()
    grid = structure.grid
    for j in executed:
        cap[:, j] = np.minimum(
            cap[:, j],
            kernel.fault_schedule.min_capacity_over(
                grid.slice_start(j), grid.slice_end(j)),
        )
    return verify_assignment(structure, x, integral=False, capacity=cap)


class TestRealizeProperty:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @example(seed=1)
    @example(seed=33)
    def test_realized_allocations_fit_the_fault_timeline(self, seed):
        scenario = make_scenario(seed)
        assume(scenario.fault_schedule is not None)
        reports = []
        original = EpochKernel.realize

        def spy(kernel, structure, x):
            executed, x_eff, capacity = original(kernel, structure, x)
            reports.append(_realized_report(kernel, structure, executed, x_eff))
            return executed, x_eff, capacity

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(EpochKernel, "realize", spy)
            service = ReservationService(
                scenario.network, fault_schedule=scenario.fault_schedule,
                queue_limit=4096, rate=4096.0,
            )
            asyncio.run(ClosedLoopDriver(service, scenario.jobs,
                                         max_epochs=400).run())
        for report in reports:
            assert report.ok, report.errors
