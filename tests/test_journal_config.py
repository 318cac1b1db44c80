"""Journal headers record each driver's configuration, and resume restores it.

Each epoch driver names the constructor arguments its journal header
records in one tuple, and ``resume`` passes them back as keywords.  For
the simulator and the reservation service alike these tests pin:

* the round trip — an instance with every journaled field off its
  default (plus a solve budget, a resilience policy and a fault
  timeline) resumes into an instance with the same configuration and
  the same header;
* a header missing a required field is a :class:`ValidationError`
  naming it, and a clean ``error:`` exit from the CLI;
* a header written before ``warm_start`` existed resumes with the
  default.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import zlib
from pathlib import Path

import pytest

from repro import Job, JobSet, Simulation, SolveBudget, ValidationError
from repro.cli import main
from repro.faults import FaultSchedule, LinkDown, LinkUp
from repro.lp.solver import SolveResilience
from repro.network import topologies
from repro.recovery.journal import SCHEMA_VERSION, read_journal
from repro.service import ReservationService

BUDGET = SolveBudget(wall_time_s=60.0, min_backend_time_s=0.5)
RESILIENCE = SolveResilience(
    max_retries=3, perturbation=1e-8, fallback_backend=None,
    fallback_max_vars=100,
)

#: Every journaled simulator field, each off its constructor default.
SIM_FIELDS = {
    "tau": 2.0,
    "slice_length": 0.5,
    "policy": "reject",
    "k_paths": 3,
    "alpha": 0.2,
    "ret_b_max": 5.0,
    "ret_delta": 0.2,
    "rejection": "greedy",
    "verify_epochs": True,
    "verify_solutions": True,
    "warm_start": False,
}

#: Every journaled service field, each off its constructor default.
SERVICE_FIELDS = {
    "tau": 2.0,
    "slice_length": 0.5,
    "k_paths": 3,
    "queue_limit": 64,
    "rate": 8.0,
    "burst": 16.0,
    "ret_b_max": 5.0,
    "ret_delta": 0.2,
    "renegotiate_limit": 2,
    "warm_start": False,
    "verify_solutions": True,
}


@pytest.fixture
def network():
    return topologies.ring(4, capacity=2)


@pytest.fixture
def faults(network):
    return FaultSchedule(network, [LinkDown(2.0, 0, 1), LinkUp(4.0, 0, 1)])


def _jobs() -> JobSet:
    return JobSet([
        Job("a", 0, 2, size=20.0, start=0.0, end=6.0),
        Job("b", 1, 3, size=15.0, start=0.0, end=8.0),
        Job("c", 3, 1, size=10.0, start=2.0, end=8.0, arrival=2.0),
    ])


def _header(path) -> dict:
    """A journal's header line without the journal's own bookkeeping."""
    header = dict(read_journal(path).header)
    assert header.pop("kind") == "header"
    assert header.pop("schema") == SCHEMA_VERSION
    return header


def _edit_header(path: Path, edit) -> None:
    """Apply ``edit`` to the header's data and re-sign the line."""
    lines = path.read_text().splitlines()
    data = json.loads(lines[0])["data"]
    edit(data)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    lines[0] = json.dumps(
        {"v": SCHEMA_VERSION, "crc": zlib.crc32(payload.encode("utf-8")),
         "data": data},
        sort_keys=True, separators=(",", ":"),
    )
    path.write_text("\n".join(lines) + "\n")


def _drop_config_field(path: Path, name: str) -> None:
    _edit_header(path, lambda data: data["config"].pop(name))


@pytest.mark.parametrize("cls, fields", [
    pytest.param(Simulation, SIM_FIELDS, id="simulation"),
    pytest.param(ReservationService, SERVICE_FIELDS, id="service"),
])
def test_fields_are_off_default(cls, fields):
    params = inspect.signature(cls).parameters
    for name, value in fields.items():
        assert params[name].default != value, name


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
def _sim_journal(tmp_path, network, **kwargs) -> Path:
    path = tmp_path / "sim.jsonl"
    Simulation(network, journal=path, **kwargs).run(_jobs(), horizon=12.0)
    return path


@pytest.fixture
def rebuilt_sims(monkeypatch):
    """Every Simulation ``resume`` rebuilds, with its ``_start`` args."""
    built = []
    start = Simulation._start

    def spy(self, jobs, horizon, journal, replay=None):
        built.append((self, jobs, horizon))
        return start(self, jobs, horizon, journal, replay)

    monkeypatch.setattr(Simulation, "_start", spy)
    return built


class TestSimulationHeader:
    def test_resume_restores_every_field(
            self, tmp_path, network, faults, rebuilt_sims):
        path = _sim_journal(
            tmp_path, network, solve_budget=BUDGET, resilience=RESILIENCE,
            fault_schedule=faults, **SIM_FIELDS,
        )
        header = _header(path)
        assert set(header["config"]) == (
            set(SIM_FIELDS) | {"planner", "solve_budget", "resilience"}
        )
        rebuilt_sims.clear()
        Simulation.resume(path)
        (sim, jobs, horizon), = rebuilt_sims
        for name, value in SIM_FIELDS.items():
            assert getattr(sim, name) == value, name
        assert sim.solve_budget.wall_time_s == BUDGET.wall_time_s
        assert sim.solve_budget.min_backend_time_s == BUDGET.min_backend_time_s
        assert sim.resilience == RESILIENCE
        assert sim.fault_schedule.events == faults.events
        assert sim._journal_header(jobs, horizon) == header

    def test_missing_required_field_is_a_validation_error(
            self, tmp_path, network):
        path = _sim_journal(tmp_path, network)
        _drop_config_field(path, "tau")
        with pytest.raises(ValidationError, match="'tau'"):
            Simulation.resume(path)

    def test_missing_warm_start_resumes_with_default(
            self, tmp_path, network, rebuilt_sims):
        path = _sim_journal(tmp_path, network, warm_start=False)
        _drop_config_field(path, "warm_start")
        rebuilt_sims.clear()
        Simulation.resume(path)
        (sim, _jobs_, _horizon), = rebuilt_sims
        assert sim.warm_start is True

    def test_cli_resume_of_broken_header_exits_1(
            self, tmp_path, network, capsys):
        path = _sim_journal(tmp_path, network)
        _drop_config_field(path, "tau")
        assert main(["resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'tau'" in err


# ----------------------------------------------------------------------
# Reservation service
# ----------------------------------------------------------------------
def _service_journal(tmp_path, network, **kwargs) -> Path:
    path = tmp_path / "serve.jsonl"
    service = ReservationService(network, journal=str(path), **kwargs)

    async def drive():
        for job in _jobs():
            service.submit({
                "id": job.id, "source": job.source, "dest": job.dest,
                "size": job.size, "start": job.start, "end": job.end,
            })
        for _ in range(3):
            await service.tick()

    asyncio.run(drive())
    service.close()
    return path


class TestServiceHeader:
    def test_resume_restores_every_field(self, tmp_path, network, faults):
        path = _service_journal(
            tmp_path, network, solve_budget=BUDGET, resilience=RESILIENCE,
            fault_schedule=faults, **SERVICE_FIELDS,
        )
        header = _header(path)
        assert set(header["config"]) == (
            set(SERVICE_FIELDS) | {"solve_budget", "resilience"}
        )
        service = ReservationService.resume(path)
        service.close()
        for name, value in SERVICE_FIELDS.items():
            assert getattr(service, name) == value, name
        assert service.solve_budget.wall_time_s == BUDGET.wall_time_s
        assert (service.solve_budget.min_backend_time_s
                == BUDGET.min_backend_time_s)
        assert service.resilience == RESILIENCE
        assert service.fault_schedule.events == faults.events
        assert service._journal_header() == header

    def test_missing_required_field_is_a_validation_error(
            self, tmp_path, network):
        path = _service_journal(tmp_path, network)
        _drop_config_field(path, "queue_limit")
        with pytest.raises(ValidationError, match="'queue_limit'"):
            ReservationService.resume(path)

    def test_missing_warm_start_resumes_with_default(self, tmp_path, network):
        path = _service_journal(tmp_path, network, warm_start=False)
        _drop_config_field(path, "warm_start")
        service = ReservationService.resume(path)
        service.close()
        assert service.warm_start is True

    def test_cli_resume_of_broken_header_exits_1(
            self, tmp_path, network, capsys):
        path = _service_journal(tmp_path, network)
        _drop_config_field(path, "queue_limit")
        assert main(["serve", "--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'queue_limit'" in err
