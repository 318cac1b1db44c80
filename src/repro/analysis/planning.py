"""Capacity planning from congestion prices: where to add wavelengths.

The optimization-based controller prices every (link, slice) cell via
the duals of the capacity constraint (3) — see
:mod:`repro.analysis.congestion`.  This module turns those prices into
an upgrade plan: greedily add whole wavelengths to the priciest links,
re-solving after each upgrade (prices change as bottlenecks move), until
a budget is exhausted or the network stops being the binding constraint.

This is the natural operator workflow the paper's framework enables but
does not spell out: the same LP that schedules tonight's transfers also
says which fiber to light next quarter.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable

from ..core.stage2 import solve_stage2_lp
from ..core.throughput import solve_stage1
from ..errors import ValidationError
from ..engine import build_structure
from ..network.graph import Network
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet
from .congestion import congestion_report

__all__ = ["UpgradeStep", "UpgradePlan", "plan_upgrades"]

Node = Hashable


@dataclass(frozen=True)
class UpgradeStep:
    """One wavelength added to one link pair.

    Attributes
    ----------
    source, target:
        The upgraded link (both directions gain a wavelength).
    price:
        The shadow price that motivated the upgrade (marginal weighted
        throughput per wavelength-slice at decision time).
    zstar_after, throughput_after:
        Stage-1 ``Z*`` and the stage-2 LP objective after the upgrade.
    """

    source: Node
    target: Node
    price: float
    zstar_after: float
    throughput_after: float


@dataclass(frozen=True)
class UpgradePlan:
    """A sequence of greedy wavelength upgrades and their effect.

    Attributes
    ----------
    steps:
        Upgrades in the order taken.
    zstar_before, throughput_before:
        Baseline metrics on the original network.
    network:
        The upgraded network (a copy; the input is untouched).
    """

    steps: tuple[UpgradeStep, ...]
    zstar_before: float
    throughput_before: float
    network: Network

    @property
    def num_upgrades(self) -> int:
        return len(self.steps)

    @property
    def zstar_after(self) -> float:
        return self.steps[-1].zstar_after if self.steps else self.zstar_before

    @property
    def throughput_after(self) -> float:
        return (
            self.steps[-1].throughput_after
            if self.steps
            else self.throughput_before
        )

    def throughput_gain(self) -> float:
        """Relative stage-2 objective improvement over the baseline.

        Note: individual steps need not improve monotonically — adding
        capacity raises ``Z*``, which *tightens* the fairness floor
        ``(1 - alpha) Z*`` and can transiently lower the fairness-
        constrained objective.  The planner optimizes the end state.
        """
        if self.throughput_before <= 0:
            return float("nan")
        return self.throughput_after / self.throughput_before - 1.0


def plan_upgrades(
    network: Network,
    jobs: JobSet,
    grid: TimeGrid | None = None,
    budget: int = 4,
    k_paths: int = 4,
    alpha: float = 0.1,
    min_price: float = 1e-6,
) -> UpgradePlan:
    """Greedy wavelength-upgrade plan for a representative workload.

    Parameters
    ----------
    network:
        The current network (not modified; the plan carries a copy).
    jobs:
        A representative demand set to plan against.
    grid:
        Scheduling grid (default: unit slices covering the jobs).
    budget:
        Maximum number of single-wavelength link-pair upgrades.
    k_paths, alpha:
        Scheduling parameters used for the evaluation solves.
    min_price:
        Stop early once the priciest link's total shadow price falls to
        this level — further capacity would be idle.
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if grid is None:
        grid = TimeGrid.covering(jobs.max_end())

    current = network.copy()

    def evaluate(net: Network):
        structure = build_structure(net, jobs, grid, k_paths)
        zstar = solve_stage1(structure).zstar
        stage2 = solve_stage2_lp(structure, zstar, alpha)
        return structure, zstar, stage2.objective

    structure, zstar0, throughput0 = evaluate(current)
    steps: list[UpgradeStep] = []
    for _ in range(budget):
        report = congestion_report(structure, solve_stage1(structure).zstar, alpha)
        hot = report.bottlenecks(top=1)
        if not hot or hot[0][2] < min_price:
            break
        source, target, price = hot[0]
        upgraded = Network(
            wavelength_rate=current.wavelength_rate, name=current.name
        )
        for node in current.nodes:
            upgraded.add_node(node)
        for e in current.edges:
            bump = (e.source, e.target) in ((source, target), (target, source))
            upgraded.add_edge(
                e.source, e.target, e.capacity + (1 if bump else 0), e.weight
            )
        current = upgraded
        structure, zstar, throughput = evaluate(current)
        steps.append(
            UpgradeStep(
                source=source,
                target=target,
                price=price,
                zstar_after=zstar,
                throughput_after=throughput,
            )
        )
    return UpgradePlan(
        steps=tuple(steps),
        zstar_before=zstar0,
        throughput_before=throughput0,
        network=current,
    )
