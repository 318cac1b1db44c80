"""Diff a fresh benchmark JSON document against a committed baseline.

The absolute floors inside the benches themselves (speedup floors in
``bench_engine.py``, the zero-lost / 100k-stream gates in
``bench_service.py``) catch collapses below a hard bar; this check
catches *relative* slides — a change that keeps every case above its
floor but gives back a chunk of the committed performance still fails.
CI copies the committed document to a baseline path before re-running
the bench, then invokes::

    python benchmarks/check_regression.py <baseline.json> <fresh.json>

Each case gates on one metric: ``speedup`` (engine-style cases — a
ratio of two wall times measured in the same process, stable across
runners) or, when no speedup is present, ``score`` (service-style
cases — an absolute rate, noisier).  A case regresses when its fresh
metric falls below ``baseline * (1 - tolerance)``; the tolerance is the
document-level ``"tolerance"`` field of the baseline when present, else
``TOLERANCE``.  Cases present only in the fresh document are reported
as new and pass, cases that *disappeared* fail.  A fresh case that
records ``"skipped"`` (a case the bench could not decide on this
machine, e.g. a parallel speedup on too few cores) is reported as
skipped and compared with nothing.  Exit status is the number of
regressed cases.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Default fractional loss tolerated before a case counts as regressed;
#: a baseline document's ``"tolerance"`` field overrides it.
TOLERANCE = 0.25


def _metric(case: dict) -> tuple[str, float]:
    """``(name, value)`` of the metric a case gates on."""
    if "speedup" in case:
        return "speedup", float(case["speedup"])
    return "score", float(case["score"])


def compare(baseline: dict, fresh: dict) -> list[str]:
    """Human-readable regression report lines; empty means clean."""
    problems: list[str] = []
    tolerance = float(baseline.get("tolerance", TOLERANCE))
    base_cases = baseline.get("cases", {})
    fresh_cases = fresh.get("cases", {})
    for name, base in sorted(base_cases.items()):
        if name not in fresh_cases:
            problems.append(f"{name}: case missing from fresh results")
            continue
        if "skipped" in fresh_cases[name] or "skipped" in base:
            continue
        metric, base_value = _metric(base)
        if metric not in fresh_cases[name]:
            problems.append(
                f"{name}: fresh case lost its {metric!r} metric"
            )
            continue
        fresh_value = float(fresh_cases[name][metric])
        floor = base_value * (1.0 - tolerance)
        if fresh_value < floor:
            problems.append(
                f"{name}: {metric} {fresh_value} regressed below "
                f"{floor:.3f} ({base_value} baseline - "
                f"{tolerance:.0%} tolerance)"
            )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, fresh_path = Path(argv[1]), Path(argv[2])
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())
    problems = compare(baseline, fresh)
    for name, case in sorted(fresh.get("cases", {}).items()):
        if "skipped" in case:
            print(f"SKIP {name}: {case['skipped']}")
            continue
        metric, value = _metric(case)
        marker = "NEW " if name not in baseline.get("cases", {}) else ""
        base = baseline.get("cases", {}).get(name, {}).get(metric, "-")
        print(f"{marker}{name}: {metric} {base} -> {value}")
    if problems:
        print()
        for line in problems:
            print(f"REGRESSION {line}")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
