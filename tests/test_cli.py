"""Unit tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro.serialization import load_json


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    assert (
        main(
            [
                "topology", "waxman", "--nodes", "20", "--capacity", "2",
                "--rate", "10", "--seed", "5", "-o", str(path),
            ]
        )
        == 0
    )
    return path


@pytest.fixture
def jobs_file(tmp_path, net_file):
    path = tmp_path / "jobs.json"
    assert (
        main(
            [
                "workload", "--network", str(net_file), "--jobs", "6",
                "--seed", "2", "-o", str(path),
            ]
        )
        == 0
    )
    return path


class TestTopologyCommand:
    def test_abilene(self, tmp_path, capsys):
        path = tmp_path / "abilene.json"
        assert main(["topology", "abilene", "-o", str(path)]) == 0
        data = load_json(path)
        assert len(data["nodes"]) == 11
        assert "wrote" in capsys.readouterr().out

    def test_wavelength_split(self, tmp_path):
        path = tmp_path / "net.json"
        main(
            [
                "topology", "abilene", "--rate", "20", "--wavelengths", "4",
                "-o", str(path),
            ]
        )
        data = load_json(path)
        assert data["wavelength_rate"] == 5.0
        assert data["edges"][0]["capacity"] == 4

    def test_line_and_ring_and_mesh(self, tmp_path):
        for kind, nodes in (("line", 4), ("ring", 5), ("mesh", 4)):
            path = tmp_path / f"{kind}.json"
            assert main(["topology", kind, "--nodes", str(nodes), "-o", str(path)]) == 0
            assert len(load_json(path)["nodes"]) == nodes


class TestWorkloadCommand:
    def test_batch(self, jobs_file):
        data = load_json(jobs_file)
        assert len(data["jobs"]) == 6

    def test_arrival_stream(self, tmp_path, net_file):
        path = tmp_path / "stream.json"
        assert (
            main(
                [
                    "workload", "--network", str(net_file),
                    "--arrival-rate", "1.0", "--horizon", "8",
                    "--seed", "1", "-o", str(path),
                ]
            )
            == 0
        )
        data = load_json(path)
        arrivals = [j["arrival"] for j in data["jobs"]]
        assert arrivals == sorted(arrivals)


class TestScheduleCommand:
    def test_summary_and_export(self, tmp_path, net_file, jobs_file, capsys):
        out = tmp_path / "sched.json"
        code = main(
            [
                "schedule", "--network", str(net_file), "--jobs", str(jobs_file),
                "-o", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Z* (stage 1)" in printed
        data = load_json(out)
        assert data["algorithm"] == "lpdar"
        assert len(data["job_throughputs"]) == 6

    def test_gantt_flag(self, net_file, jobs_file, capsys):
        assert (
            main(
                [
                    "schedule", "--network", str(net_file),
                    "--jobs", str(jobs_file), "--gantt",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "job" in printed and "link" in printed


def _table_rows(printed: str, title: str) -> list[str]:
    """Data rows of the table titled ``title`` in ``printed``."""
    assert title in printed
    section = printed.split(title, 1)[1].split("\n\n", 1)[0]
    return section.strip("\n").splitlines()[2:]  # past header and rule


class TestProfileFlag:
    @pytest.mark.parametrize("command", [
        "schedule", "ret", "simulate", "resume", "serve",
    ])
    def test_profile_flag(self, command, tmp_path, net_file, jobs_file,
                          capsys):
        inputs = ["--network", str(net_file), "--jobs", str(jobs_file)]
        if command == "resume":
            # A journal cut after its first epoch, as a crash leaves it.
            journal = tmp_path / "run.jsonl"
            assert main(["simulate", *inputs, "--journal", str(journal)]) == 0
            lines = journal.read_text().splitlines(keepends=True)
            journal.write_text("".join(lines[:2]))
            capsys.readouterr()
            argv = ["resume", str(journal)]
        elif command == "serve":
            argv = ["serve", "--network", str(net_file),
                    "--trace", str(jobs_file)]
        else:
            argv = [command, *inputs]
        assert main([*argv, "--profile"]) == 0
        printed = capsys.readouterr().out
        assert "telemetry — spans" in printed
        assert _table_rows(printed, "telemetry — LP solves")
        counters = _table_rows(printed, "telemetry — counters")
        assert any(row.split()[0] == "lp_solves" for row in counters)


class TestRetCommand:
    def test_ret_summary(self, net_file, jobs_file, capsys):
        assert (
            main(["ret", "--network", str(net_file), "--jobs", str(jobs_file)])
            == 0
        )
        printed = capsys.readouterr().out
        assert "b_final" in printed
        assert "jobs finished" in printed

    def test_ret_profile_prints_search_trace(self, net_file, jobs_file, capsys):
        assert (
            main(
                [
                    "ret", "--network", str(net_file), "--jobs", str(jobs_file),
                    "--profile",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "RET binary-search trace" in printed
        assert "feasible" in printed

    def test_ret_no_warm_start(self, net_file, jobs_file, capsys):
        assert (
            main(
                [
                    "ret", "--network", str(net_file), "--jobs", str(jobs_file),
                    "--no-warm-start",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "b_final" in printed
        assert "jobs finished" in printed

    def test_interval_mode(self, net_file, jobs_file, capsys):
        assert (
            main(
                [
                    "ret", "--network", str(net_file), "--jobs", str(jobs_file),
                    "--mode", "interval",
                ]
            )
            == 0
        )
        assert "interval" in capsys.readouterr().out


class TestSimulateCommand:
    @pytest.mark.parametrize("policy", ["reject", "reduce", "extend"])
    def test_policies(self, net_file, jobs_file, capsys, policy):
        assert (
            main(
                [
                    "simulate", "--network", str(net_file),
                    "--jobs", str(jobs_file), "--policy", policy,
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "num_completed" in printed

    def test_simulate_no_warm_start(self, net_file, jobs_file, capsys):
        assert (
            main(
                [
                    "simulate", "--network", str(net_file),
                    "--jobs", str(jobs_file), "--no-warm-start",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "num_completed" in printed


class TestResumeCommand:
    def test_journal_then_resume(self, tmp_path, net_file, jobs_file, capsys):
        journal = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "simulate", "--network", str(net_file),
                    "--jobs", str(jobs_file), "--journal", str(journal),
                ]
            )
            == 0
        )
        assert journal.exists()
        capsys.readouterr()
        assert main(["resume", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "resumed simulation" in out
        assert "num_completed" in out

    def test_solve_budget_flag(self, net_file, jobs_file, capsys):
        assert (
            main(
                [
                    "simulate", "--network", str(net_file),
                    "--jobs", str(jobs_file), "--solve-budget", "30",
                ]
            )
            == 0
        )
        assert "num_completed" in capsys.readouterr().out

    def test_resume_missing_journal_is_clean_error(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestFaultSpecErrors:
    """Malformed --faults files fail with error messages, not tracebacks."""

    def _simulate(self, net_file, jobs_file, spec):
        return main(
            [
                "simulate", "--network", str(net_file),
                "--jobs", str(jobs_file), "--faults", str(spec),
            ]
        )

    def test_nonexistent_fault_file(self, tmp_path, net_file, jobs_file, capsys):
        code = self._simulate(net_file, jobs_file, tmp_path / "missing.json")
        assert code == 1
        assert "error: no such file" in capsys.readouterr().err

    def test_fault_file_not_an_object(self, tmp_path, net_file, jobs_file, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps([1, 2, 3]))
        assert self._simulate(net_file, jobs_file, spec) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'events' list" in err

    def test_non_numeric_time(self, tmp_path, net_file, jobs_file, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "events": [
                {"kind": "down", "source": 0, "target": 1, "time": "soon"},
            ],
        }))
        assert self._simulate(net_file, jobs_file, spec) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "non-numeric time" in err and "'soon'" in err

    def test_bad_degrade_remaining(self, tmp_path, net_file, jobs_file, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "events": [
                {"kind": "degrade", "source": 0, "target": 1,
                 "time": 1.0, "remaining": "lots"},
            ],
        }))
        assert self._simulate(net_file, jobs_file, spec) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "non-integer" in err

    def test_non_scalar_endpoint(self, tmp_path, net_file, jobs_file, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "events": [
                {"kind": "down", "source": [0, 1], "target": 1, "time": 1.0},
            ],
        }))
        assert self._simulate(net_file, jobs_file, spec) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "non-scalar source" in err


class TestErrorHandling:
    def test_missing_file_is_clean_error(self, capsys):
        code = main(["schedule", "--network", "/nope.json", "--jobs", "/nope.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestRejectionFlag:
    def test_greedy_rejection_accepted(self, net_file, jobs_file, capsys):
        assert (
            main(
                [
                    "simulate", "--network", str(net_file),
                    "--jobs", str(jobs_file), "--policy", "reject",
                    "--rejection", "greedy",
                ]
            )
            == 0
        )
        assert "num_completed" in capsys.readouterr().out


class TestExperimentCommand:
    def test_quick_fig2(self, capsys):
        assert main(["experiment", "fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FIG2" in out and "LPDAR/LP" in out


class TestExports:
    def test_ret_output(self, tmp_path, net_file, jobs_file):
        out = tmp_path / "ret.json"
        assert (
            main(
                [
                    "ret", "--network", str(net_file), "--jobs", str(jobs_file),
                    "-o", str(out),
                ]
            )
            == 0
        )
        data = load_json(out)
        assert "b_final" in data
        assert data["grants"]
        assert len(data["extended_ends"]) == 6

    def test_simulate_output(self, tmp_path, net_file, jobs_file):
        out = tmp_path / "run.json"
        assert (
            main(
                [
                    "simulate", "--network", str(net_file),
                    "--jobs", str(jobs_file), "-o", str(out),
                ]
            )
            == 0
        )
        data = load_json(out)
        assert len(data["records"]) == 6
        assert data["events"]


class TestCsvTraces:
    def test_workload_csv_output_and_schedule_input(self, tmp_path, net_file, capsys):
        trace = tmp_path / "jobs.csv"
        assert (
            main(
                [
                    "workload", "--network", str(net_file), "--jobs", "5",
                    "--seed", "9", "-o", str(trace),
                ]
            )
            == 0
        )
        first_line = trace.read_text().splitlines()[0]
        assert first_line.startswith("id,source,dest")
        assert (
            main(["schedule", "--network", str(net_file), "--jobs", str(trace)])
            == 0
        )
        assert "Z* (stage 1)" in capsys.readouterr().out


class TestExperimentMarkdown:
    def test_markdown_flag(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert (
            main(["experiment", "fig2", "--quick", "--markdown", str(out)])
            == 0
        )
        assert "## FIG2" in out.read_text()
        assert "wrote markdown report" in capsys.readouterr().out
