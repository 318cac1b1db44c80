"""Gym-style environment over the simulator's epoch-control loop.

:class:`SchedulingEnv` exposes :meth:`Simulation.controller
<repro.sim.simulator.Simulation.controller>`'s paused generator as the
classic ``reset``/``step`` episode interface: each step is one
scheduling epoch, the action is an
:class:`~repro.control.kernel.EpochAction` (alpha start/cap, ``k_paths``,
admission policy, solve-budget split), and the reward is the epoch's
delivered volume plus a terminal deadline-rate bonus.  Sending ``None``
as the action defers to the simulation's attached
:class:`~repro.control.policies.ControlPolicy`, so the env doubles as a
rollout harness for policies written against the kernel contract.

The env does not reimplement any controller logic — it drives the very
same generator :meth:`Simulation.run` drives, so an episode played with
all-``None`` actions is bit-for-bit the plain simulation.
"""

from __future__ import annotations

import math

from ..errors import ValidationError
from .kernel import EpochAction, EpochObservation
from .policies import ControlPolicy, FixedPolicy

__all__ = ["SchedulingEnv"]


class SchedulingEnv:
    """Reset/step episodes over :class:`~repro.sim.simulator.Simulation`.

    Parameters
    ----------
    network, jobs:
        The instance an episode simulates.
    horizon:
        Simulated time span per episode (``None``: the simulator's
        generous default — latest deadline plus RET headroom).
    policy:
        The fallback :class:`~repro.control.policies.ControlPolicy`
        consulted when :meth:`step` is sent ``None``.  Also what forces
        the kernel to build observations at all, so it must not be
        ``None``; defaults to :class:`FixedPolicy`.
    deadline_weight:
        Scale of the terminal bonus ``deadline_weight * deadline_rate``
        added to the last step's reward (the deadline rate is the share
        of admitted jobs finished by their original deadline).
    sim_kwargs:
        Forwarded to the :class:`~repro.sim.simulator.Simulation`
        constructor (``k_paths``, ``fault_schedule``,
        ``verify_epochs``, ...).

    Episode protocol
    ----------------
    ``reset()`` returns the first decision point's
    :class:`~repro.control.kernel.EpochObservation`, or ``None`` when
    the episode finished without ever reaching one (no schedulable
    work); ``step(action)`` returns ``(obs, reward, done, info)`` where
    ``obs`` is the next decision point (``None`` once done), ``info``
    carries the step's :class:`~repro.control.kernel.EpochOutcome`, and
    the terminal ``info`` adds the full
    :class:`~repro.sim.simulator.SimulationResult` under ``"result"``.
    """

    def __init__(
        self,
        network,
        jobs,
        *,
        horizon: float | None = None,
        policy: ControlPolicy | None = None,
        deadline_weight: float = 1.0,
        **sim_kwargs,
    ) -> None:
        from ..sim.simulator import Simulation

        if "control_policy" in sim_kwargs:
            raise ValidationError(
                "pass the fallback policy as SchedulingEnv(policy=...), "
                "not control_policy="
            )
        self.network = network
        self.jobs = jobs
        self.horizon = horizon
        self.policy = policy if policy is not None else FixedPolicy()
        self.deadline_weight = float(deadline_weight)
        self._sim_kwargs = dict(sim_kwargs)
        self._sim_cls = Simulation
        self._kernel = None
        self._steps = None
        self._pending: EpochObservation | None = None
        self._done = True
        self.result = None

    # ------------------------------------------------------------------
    @property
    def kernel(self):
        """The live run's :class:`~repro.control.kernel.EpochKernel`."""
        return self._kernel

    @property
    def base_action(self) -> EpochAction:
        """The action space's identity element (the driver's base knobs)."""
        if self._kernel is None:
            raise ValidationError("call reset() before base_action")
        return self._kernel.base_action

    @property
    def done(self) -> bool:
        return self._done

    # ------------------------------------------------------------------
    def reset(self) -> EpochObservation | None:
        """Start a fresh episode; returns the first decision point."""
        sim = self._sim_cls(
            self.network, control_policy=self.policy, **self._sim_kwargs
        )
        self._kernel, self._steps = sim.controller(self.jobs, self.horizon)
        self._done = False
        self.result = None
        self._pending = self._advance(None)
        return self._pending

    def step(
        self, action: EpochAction | None = None
    ) -> tuple[EpochObservation | None, float, bool, dict]:
        """Apply one epoch's knobs; play the epoch; pause at the next.

        ``action=None`` defers to the env's fallback policy (via the
        kernel's own decide path).
        """
        if self._done or self._steps is None:
            raise ValidationError(
                "episode is done (or never started); call reset()"
            )
        kind, outcome = self._send(action)
        if kind != "outcome":  # pragma: no cover - contract guard
            raise ValidationError(
                f"controller yielded {kind!r} where an outcome was due"
            )
        reward = outcome.delivered
        obs = self._advance(None)
        info: dict = {"outcome": outcome}
        if self._done:
            info["result"] = self.result
            rate = self.result.deadline_rate
            if not math.isnan(rate):
                reward += self.deadline_weight * rate
        self._pending = obs
        return obs, reward, self._done, info

    # ------------------------------------------------------------------
    def _send(self, payload):
        try:
            return self._steps.send(payload)
        except StopIteration as stop:
            self._done = True
            self.result = stop.value
            self._steps = None
            return "stop", None

    def _advance(self, payload) -> EpochObservation | None:
        """Run to the next decide pause (or to the end of the episode)."""
        kind, value = self._send(payload)
        if kind == "stop":
            return None
        if kind != "decide":  # pragma: no cover - contract guard
            raise ValidationError(
                f"controller yielded {kind!r} where a decision was due"
            )
        return value
