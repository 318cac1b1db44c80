"""Smoke tests for the public API surface."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ names missing attr {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        subs = (
            "core", "network", "workload", "lp", "sim",
            "analysis", "faults", "verify", "recovery", "parallel",
            "control",
        )
        for sub in subs:
            mod = importlib.import_module(f"repro.{sub}")
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"repro.{sub} missing {name}"

    def test_verify_names_exported_at_top_level(self):
        """The verification entry points are part of the top-level API."""
        for name in (
            "VerificationReport",
            "Violation",
            "verify_schedule",
            "verify_assignment",
            "verify_grants",
        ):
            assert name in repro.__all__, f"{name} missing from repro.__all__"
            assert getattr(repro, name) is getattr(repro.verify, name)

    def test_engine_names_exported_at_top_level(self):
        """The model engine and backend registry are top-level API."""
        for name in (
            "ModelEngine",
            "build_structure",
            "TopologyLayer",
            "LayoutLayer",
            "SolverBackend",
            "HighsBackend",
            "SimplexBackend",
            "register_backend",
            "get_backend",
            "available_backends",
        ):
            assert name in repro.__all__, f"{name} missing from repro.__all__"
            assert getattr(repro, name) is getattr(repro.engine, name)

    def test_recovery_names_exported_at_top_level(self):
        """The durability entry points are part of the top-level API."""
        for name in (
            "EpochJournal",
            "JournalReplay",
            "read_journal",
            "SCHEMA_VERSION",
            "CRASH_POINTS",
            "CrashInjector",
            "SimulatedCrash",
            "SolveBudget",
        ):
            assert name in repro.__all__, f"{name} missing from repro.__all__"
            assert getattr(repro, name) is getattr(repro.recovery, name)

    def test_parallel_names_exported_at_top_level(self):
        """The process fleet is part of the top-level API."""
        for name in (
            "TaskSpec",
            "TaskResult",
            "register_task",
            "run_fleet",
        ):
            assert name in repro.__all__, f"{name} missing from repro.__all__"
            assert getattr(repro, name) is getattr(repro.parallel, name)

    def test_control_names_exported_at_top_level(self):
        """The epoch-control kernel and policy surface are top-level API."""
        for name in (
            "EpochKernel",
            "EpochAction",
            "EpochObservation",
            "EpochOutcome",
            "ControlPolicy",
            "FixedPolicy",
            "AlphaBanditPolicy",
            "LoadReactivePathsPolicy",
            "POLICY_NAMES",
            "make_policy",
            "SchedulingEnv",
            "PolicyRunResult",
            "PolicyComparison",
            "compare_policies",
        ):
            assert name in repro.__all__, f"{name} missing from repro.__all__"
            assert getattr(repro, name) is getattr(repro.control, name)

    def test_solve_budget_shared_with_lp_layer(self):
        """repro.recovery re-exports the lp layer's SolveBudget, not a copy."""
        assert repro.recovery.SolveBudget is repro.lp.SolveBudget

    def test_all_errors_exported_at_top_level(self):
        """Every error type is catchable from the top-level namespace.

        Callers handle failures with ``except repro.SolverError`` etc.;
        an error class reachable only via ``repro.errors`` would force
        them to know the internal module layout.
        """
        from repro import errors

        missing = set(errors.__all__) - set(repro.__all__)
        assert not missing, f"errors not re-exported at top level: {missing}"
        for name in errors.__all__:
            assert getattr(repro, name) is getattr(errors, name)

    def test_module_docstring_quickstart_runs(self):
        """The doctest in the package docstring must actually work."""
        from repro import Job, JobSet, Scheduler, topologies

        net = topologies.abilene().with_wavelengths(4, total_link_rate=20.0)
        jobs = JobSet(
            [
                Job(
                    id="hep",
                    source="Chicago",
                    dest="Sunnyvale",
                    size=120.0,
                    start=0.0,
                    end=4.0,
                )
            ]
        )
        result = Scheduler(net).schedule(jobs)
        assert result.zstar > 1.0

    def test_public_items_documented(self):
        """Every public class/function exposed at top level has a docstring."""
        import inspect

        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"
