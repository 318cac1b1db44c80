"""Parallel execution layer: the process fleet.

Fleet mode (:mod:`repro.parallel.fleet`) fans whole tasks (seeded fuzz
scenarios, experiment cells, chaos probes) out to a pool of worker
processes as picklable :class:`TaskSpec` envelopes.  Results come back
in spec order, so a run is deterministic regardless of completion
order, and a task that raises, kills or hangs its worker is contained
and reported in its own envelope.  ``repro fleet`` and
``repro verify --fuzz --workers`` sit on top of this.

``docs/parallel.md`` has the design narrative: task registration,
crash and hang containment, and the determinism guarantees.
"""

from .fleet import (
    TaskResult,
    TaskSpec,
    default_jobs,
    get_task,
    register_task,
    run_fleet,
    task_names,
)

__all__ = [
    "TaskSpec",
    "TaskResult",
    "register_task",
    "get_task",
    "task_names",
    "run_fleet",
    "default_jobs",
]
