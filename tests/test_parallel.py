"""Unit tests for the parallel layer: the fleet runner.

The determinism properties live in ``test_parallel_equivalence.py``;
this file pins the mechanics — spec ordering, failure envelopes, crash
retries and their attribution, and the picklability contract fleet
mode depends on.
"""

import os
import pickle

import pytest

from repro import ValidationError
from repro.faults import FaultSchedule
from repro.network import topologies
from repro.parallel import TaskSpec, register_task, run_fleet
from repro.parallel.fleet import default_jobs, get_task, task_names
from repro.verify.fuzz import make_scenario, run_scenario


# ---------------------------------------------------------------------------
# Fleet task functions.  Module-level so fork/spawn workers can import
# them by qualified name; registered under stable test-local names.
# ---------------------------------------------------------------------------
@register_task("test-square")
def _square(n):
    return n * n


@register_task("test-boom")
def _boom(message):
    raise ValueError(message)


@register_task("test-crash-once")
def _crash_once(sentinel):
    """Dies hard on the first call, succeeds once ``sentinel`` exists."""
    if os.path.exists(sentinel):
        return "recovered"
    with open(sentinel, "w") as fh:
        fh.write("seen")
    os._exit(13)


@register_task("test-kill")
def _kill():
    """Dies hard on every call, retries included."""
    os._exit(17)


class TestFleetRunner:
    def test_results_in_spec_order(self):
        specs = [TaskSpec("test-square", {"n": n}) for n in range(8)]
        for jobs in (1, 3):
            results = run_fleet(specs, jobs=jobs)
            assert [r.value for r in results] == [n * n for n in range(8)]
            assert [r.index for r in results] == list(range(8))
            assert all(r.ok for r in results)

    def test_inline_and_pooled_runs_agree(self):
        specs = [
            TaskSpec("test-square", {"n": n}, label=f"sq[{n}]") for n in range(5)
        ]
        inline = run_fleet(specs, jobs=1)
        pooled = run_fleet(specs, jobs=2)
        assert [(r.ok, r.value, r.label) for r in inline] == [
            (r.ok, r.value, r.label) for r in pooled
        ]

    def test_raising_task_is_contained(self):
        specs = [
            TaskSpec("test-square", {"n": 3}),
            TaskSpec("test-boom", {"message": "kaboom"}),
            TaskSpec("test-square", {"n": 4}),
        ]
        for jobs in (1, 2):
            results = run_fleet(specs, jobs=jobs)
            assert [r.ok for r in results] == [True, False, True]
            failed = results[1]
            assert failed.error_type == "ValueError"
            assert "kaboom" in failed.error
            assert failed.traceback and "ValueError" in failed.traceback

    def test_worker_crash_is_retried_then_succeeds(self, tmp_path):
        sentinel = str(tmp_path / "crash-once")
        results = run_fleet(
            [TaskSpec("test-crash-once", {"sentinel": sentinel})],
            jobs=2,
            retries=1,
        )
        assert results[0].ok
        assert results[0].value == "recovered"
        assert results[0].attempts == 2

    def test_worker_crash_without_retries_is_reported(self, tmp_path):
        sentinel = str(tmp_path / "crash-hard")
        results = run_fleet(
            [TaskSpec("test-crash-once", {"sentinel": sentinel})],
            jobs=2,
            retries=0,
        )
        assert not results[0].ok
        assert results[0].error_type == "WorkerCrashed"

    def test_killer_is_charged_and_innocents_never_are(self):
        # The killer breaks the shared pool on every attempt while
        # innocents are in flight beside it; only the killer may lose
        # its retries, every time.
        specs = [TaskSpec("test-square", {"n": n}, label=f"sq[{n}]")
                 for n in range(5)]
        specs.insert(2, TaskSpec("test-kill", label="killer"))
        for _ in range(3):
            results = run_fleet(specs, jobs=2, retries=1)
            by_label = {r.label: r for r in results}
            killer = by_label.pop("killer")
            assert not killer.ok
            assert killer.error_type == "WorkerCrashed"
            assert killer.attempts == 2
            assert [r.value for r in by_label.values()] == [
                n * n for n in range(5)
            ]
            assert all(r.ok and r.attempts == 1 for r in by_label.values())

    def test_unknown_task_rejected(self):
        with pytest.raises(ValidationError, match="unknown fleet task"):
            run_fleet([TaskSpec("no-such-task")], jobs=1)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValidationError, match="jobs"):
            run_fleet([], jobs=0)
        with pytest.raises(ValidationError, match="retries"):
            run_fleet([], jobs=1, retries=-1)
        with pytest.raises(ValidationError, match="TaskSpec"):
            run_fleet(["not a spec"], jobs=1)

    def test_empty_specs(self):
        assert run_fleet([], jobs=4) == []

    def test_dotted_path_and_builtin_names_resolve(self):
        assert get_task("os:getpid") is os.getpid
        # Built-ins resolve lazily and land in task_names().
        assert get_task("fuzz_scenario").__name__ == "fleet_fuzz_scenario"
        for name in ("fuzz_scenario", "experiment", "chaos_probe"):
            assert name in task_names()
        assert "test-square" in task_names()

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


# ---------------------------------------------------------------------------
# Picklability of everything fleet mode ships to workers.
# ---------------------------------------------------------------------------
class TestPicklability:
    def test_scenario_roundtrip_offline(self):
        # Seed 0 is an offline (schedule + oracle) scenario.
        scenario = make_scenario(0)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone.seed == scenario.seed
        assert clone.description == scenario.description
        assert [j.id for j in clone.jobs] == [j.id for j in scenario.jobs]
        original = run_scenario(scenario)
        replayed = run_scenario(clone)
        assert replayed.failures == original.failures
        assert replayed.gap == original.gap
        assert (replayed.report is None) == (original.report is None)
        if original.report is not None:
            assert replayed.report.ok == original.report.ok

    def test_fault_schedule_roundtrip(self):
        network = topologies.ring(5, capacity=2)
        schedule = FaultSchedule.random(
            network, horizon=10.0, mtbf=4.0, mttr=1.0, seed=7
        )
        clone = pickle.loads(pickle.dumps(schedule))
        assert len(clone) == len(schedule)
        assert list(clone) == list(schedule)

    def test_scenario_with_faults_roundtrip(self):
        scenario = next(
            s
            for s in (make_scenario(seed) for seed in range(64))
            if s.fault_schedule is not None
        )
        clone = pickle.loads(pickle.dumps(scenario))
        assert list(clone.fault_schedule) == list(scenario.fault_schedule)
        assert run_scenario(clone).failures == run_scenario(scenario).failures

    def test_pickle_to_worker_roundtrip_deterministic(self):
        # The full loop: the spec pickles into a worker process,
        # the outcome pickles back, and both match the inline run.
        specs = [
            TaskSpec("fuzz_scenario", {"seed": seed, "oracle": True})
            for seed in (0, 1, 2)
        ]
        inline = run_fleet(specs, jobs=1)
        pooled = run_fleet(specs, jobs=2)
        for a, b in zip(inline, pooled):
            assert a.ok and b.ok
            assert a.value.scenario.description == b.value.scenario.description
            assert a.value.failures == b.value.failures
            assert a.value.gap == b.value.gap
