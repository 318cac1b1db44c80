"""Unit tests for the greedy (non-prefix) admission policy."""

import pytest

from repro import Job, JobSet, TimeGrid, ValidationError, admit_greedy, admit_max_prefix
from repro.core.admission import by_arrival, by_size_descending
from repro.network import topologies


@pytest.fixture
def net():
    return topologies.line(2, capacity=2)


class TestAdmitGreedy:
    def test_skips_infeasible_and_continues(self, net):
        """The prefix policy stops at the first misfit; greedy skips it."""
        jobs = JobSet(
            [
                Job(id="small1", source=0, dest=1, size=2.0, start=0.0, end=2.0,
                    arrival=-3.0),
                Job(id="huge", source=0, dest=1, size=40.0, start=0.0, end=2.0,
                    arrival=-2.0),
                Job(id="small2", source=0, dest=1, size=2.0, start=0.0, end=2.0,
                    arrival=-1.0),
            ]
        )
        grid = TimeGrid.uniform(2)
        prefix = admit_max_prefix(net, jobs, grid, key=by_arrival)
        greedy = admit_greedy(net, jobs, grid, key=by_arrival)
        assert {j.id for j in prefix.admitted} == {"small1"}
        assert {j.id for j in greedy.admitted} == {"small1", "small2"}
        assert {j.id for j in greedy.rejected} == {"huge"}

    def test_greedy_never_worse_than_prefix_in_count(self, net):
        """Under the same ordering, greedy admits a superset of the prefix."""
        jobs = JobSet(
            [
                Job(id=i, source=0, dest=1, size=float(s), start=0.0, end=2.0,
                    arrival=float(i) - 10.0)
                for i, s in enumerate([1.0, 3.0, 1.0, 2.0, 1.0])
            ]
        )
        grid = TimeGrid.uniform(2)
        prefix = admit_max_prefix(net, jobs, grid, key=by_arrival)
        greedy = admit_greedy(net, jobs, grid, key=by_arrival)
        prefix_ids = {j.id for j in prefix.admitted}
        greedy_ids = {j.id for j in greedy.admitted}
        assert prefix_ids <= greedy_ids

    def test_admitted_set_is_feasible(self, net):
        jobs = JobSet(
            [
                Job(id=i, source=0, dest=1, size=1.5, start=0.0, end=2.0)
                for i in range(6)
            ]
        )
        greedy = admit_greedy(net, jobs, TimeGrid.uniform(2))
        assert greedy.zstar >= 1.0 - 1e-9

    def test_unschedulable_rejected_without_solving(self):
        from repro import Network

        net = Network()
        net.add_link_pair(0, 1, 2)
        net.add_node(9)
        jobs = JobSet(
            [
                Job(id="ok", source=0, dest=1, size=1.0, start=0.0, end=2.0),
                Job(id="nopath", source=0, dest=9, size=1.0, start=0.0, end=2.0),
            ]
        )
        greedy = admit_greedy(net, jobs, TimeGrid.uniform(2))
        assert {j.id for j in greedy.admitted} == {"ok"}

    def test_threshold_validation(self, net):
        jobs = JobSet([Job(id=0, source=0, dest=1, size=1.0, start=0.0, end=2.0)])
        with pytest.raises(ValidationError):
            admit_greedy(net, jobs, TimeGrid.uniform(2), threshold=0.0)

    def test_empty_admission_zstar_is_inf(self, net):
        jobs = JobSet(
            [Job(id=0, source=0, dest=1, size=1000.0, start=0.0, end=2.0)]
        )
        greedy = admit_greedy(net, jobs, TimeGrid.uniform(2))
        assert greedy.num_admitted == 0
        assert greedy.zstar == float("inf")

    def test_value_ordering_admits_big_jobs_first(self, net):
        jobs = JobSet(
            [
                Job(id="big", source=0, dest=1, size=4.0, start=0.0, end=2.0),
                Job(id="s1", source=0, dest=1, size=2.0, start=0.0, end=2.0),
                Job(id="s2", source=0, dest=1, size=2.0, start=0.0, end=2.0),
            ]
        )
        greedy = admit_greedy(
            net, jobs, TimeGrid.uniform(2), key=by_size_descending
        )
        assert {j.id for j in greedy.admitted} == {"big"}


class TestProbesGoThroughTheEngineMemo:
    """The simulator's greedy admission probes share the scheduler's memo.

    The same run is made twice: as is, and with the probes' stage-1
    solves taken off the engine memo (each probe solves on its own, as
    before the probes took ``engine=``).  The memo turns exactly the
    replayed solves into hits and changes no journal byte.
    """

    @staticmethod
    def _run(tmp_path, monkeypatch, bypass_memo: bool):
        import json

        from repro import Simulation
        from repro.core import admission, throughput
        from repro.obs import Telemetry
        from repro.verify.fuzz import make_scenario

        if bypass_memo:
            def solve_stage1(structure, budget=None, engine=None):
                return throughput.solve_stage1(structure, budget=budget)

            monkeypatch.setattr(admission, "solve_stage1", solve_stage1)
        scenario = make_scenario(0)
        path = tmp_path / f"sim-{bypass_memo}.jsonl"
        with Telemetry() as telemetry:
            Simulation(
                scenario.network, policy="reject", rejection="greedy",
                k_paths=3, fault_schedule=scenario.fault_schedule,
                journal=path,
            ).run(scenario.jobs, horizon=scenario.grid.end * 3.0)
        monkeypatch.undo()

        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items()
                        if k not in ("solve_seconds", "crc")}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        lines = [strip(json.loads(line))
                 for line in path.read_text().splitlines()]
        counters = telemetry.counters
        return counters["lp_solves"], counters.get("memo_hits", 0), lines

    def test_replayed_solves_become_memo_hits(self, tmp_path, monkeypatch):
        solves, hits, lines = self._run(tmp_path, monkeypatch, False)
        solo_solves, solo_hits, solo_lines = self._run(
            tmp_path, monkeypatch, True
        )
        assert solves < solo_solves
        assert hits - solo_hits == solo_solves - solves
        assert lines == solo_lines
