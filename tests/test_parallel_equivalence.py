"""Fleet determinism: the worker count never leaks into a report.

Fleet fuzz runs with ``jobs=1`` and ``jobs=4`` must produce
byte-identical per-scenario reports, and repeated pooled runs must
agree with each other.
"""

from repro.verify.fuzz import run_fuzz


class TestFleetDeterminism:
    def test_jobs_1_and_jobs_4_reports_identical(self):
        serial = run_fuzz(8, seed=5, jobs=1)
        fleet = run_fuzz(8, seed=5, jobs=4)
        assert serial.render() == fleet.render()
        assert serial.ok == fleet.ok
        for a, b in zip(serial.outcomes, fleet.outcomes):
            assert a.scenario.description == b.scenario.description
            assert a.failures == b.failures
            assert a.gap == b.gap
            assert a.backend_agree == b.backend_agree

    def test_repeated_fleet_runs_identical(self):
        first = run_fuzz(6, seed=9, jobs=2)
        second = run_fuzz(6, seed=9, jobs=2)
        assert first.render() == second.render()
