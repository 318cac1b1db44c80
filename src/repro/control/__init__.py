"""Shared epoch-control kernel and pluggable policy surface.

The paper's controller is one periodic observe → decide → solve →
commit loop; this package owns that loop's contract so the simulator,
the reservation service, and the chaos runner all drive a single
:class:`EpochKernel` instead of three divergent copies.

Layers, bottom up:

* :mod:`~repro.control.kernel` — the kernel itself (with the run's
  per-action planner cache) plus the shared epoch primitives (fault
  cursor, stale-window predicate, used-edge extraction, journal config
  encoding) and the
  :class:`EpochObservation` / :class:`EpochAction` /
  :class:`EpochOutcome` dataclasses.
* :mod:`~repro.control.policies` — the :class:`ControlPolicy` protocol
  and the non-learned baselines (:class:`FixedPolicy`,
  :class:`AlphaBanditPolicy`, :class:`LoadReactivePathsPolicy`).
* :mod:`~repro.control.harness` — :func:`compare_policies`, the
  checker-clean policy sweep behind ``repro policy compare``.
"""

from .kernel import (
    EpochAction,
    EpochKernel,
    EpochObservation,
    EpochOutcome,
    FaultDetection,
    advance_fault_cursor,
    base_action_for,
    used_edges,
    window_closed,
)
from .policies import (
    POLICY_NAMES,
    AlphaBanditPolicy,
    ControlPolicy,
    FixedPolicy,
    LoadReactivePathsPolicy,
    make_policy,
)
from .harness import PolicyComparison, PolicyRunResult, compare_policies

__all__ = [
    "EpochKernel",
    "EpochAction",
    "EpochObservation",
    "EpochOutcome",
    "FaultDetection",
    "advance_fault_cursor",
    "base_action_for",
    "window_closed",
    "used_edges",
    "ControlPolicy",
    "FixedPolicy",
    "AlphaBanditPolicy",
    "LoadReactivePathsPolicy",
    "POLICY_NAMES",
    "make_policy",
    "PolicyRunResult",
    "PolicyComparison",
    "compare_policies",
]
