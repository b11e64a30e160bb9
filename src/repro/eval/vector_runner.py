"""Batched episode runner over a :class:`~repro.sim.VectorHVACEnv`.

One policy decision and one environment step serve the whole fleet:
batched policies (anything exposing ``select_actions``) get a single
``(n_envs, obs_dim)`` forward pass per control step, and classical
controllers are adapted by :class:`PerEnvPolicy` — the thermostat and
PID in their fleet form (one array step for every env, as campaigns run
them), any other controller as one object per env.  Metrics are
accumulated as arrays and only materialize into per-env
:class:`~repro.eval.metrics.EpisodeMetrics` at episode end, so the
runner adds O(1) Python work per fleet step.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.core.agent import AgentBase
from repro.eval.metrics import (
    EpisodeMetrics,
    EvaluationSummary,
    summarize_episodes,
)
from repro.utils.validation import check_positive


class PerEnvPolicy:
    """Adapts classical controllers to the batched protocol.

    Either one controller per env: each agent sees its own env's
    (un-padded) observation row and returns its own action vector, and
    :meth:`select_actions` returns their list (the vector env handles
    padding).  Or, built with :meth:`of_fleet`, one fleet-form controller
    (:class:`~repro.baselines.FleetThermostat`,
    :class:`~repro.baselines.FleetPID`) that decides every env in one
    array step: :meth:`select_actions` then returns its int64
    ``(n_envs, max_zones)`` level matrix.  Learned agents should
    implement ``select_actions`` natively so inference batches in one
    forward pass.
    """

    def __init__(self, agents: Sequence[AgentBase], obs_dims: Sequence[int]) -> None:
        if len(agents) != len(obs_dims):
            raise ValueError(
                f"need one obs dim per agent: {len(agents)} agents, "
                f"{len(obs_dims)} dims"
            )
        self.agents = list(agents)
        self.obs_dims = [int(d) for d in obs_dims]
        self.fleet = None

    @classmethod
    def of_fleet(cls, controller) -> "PerEnvPolicy":
        """Adapt one fleet-form controller (``begin_episode(obs_batch)``,
        ``select_actions(obs_batch, *, explore=False)``)."""
        policy = cls([], [])
        policy.fleet = controller
        return policy

    def begin_episode(self, obs_batch: np.ndarray) -> None:
        """Forward the first observations to the fleet-form controller, or
        each env's row to its agent."""
        if self.fleet is not None:
            self.fleet.begin_episode(obs_batch)
        for k, agent in enumerate(self.agents):
            agent.begin_episode(obs_batch[k, : self.obs_dims[k]])

    def select_actions(
        self, obs_batch: np.ndarray, *, explore: bool = False
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """The fleet-form controller's level matrix, or one action vector
        per env (a list, so widths may differ)."""
        if self.fleet is not None:
            return self.fleet.select_actions(obs_batch, explore=explore)
        return [
            np.atleast_1d(
                agent.select_action(obs_batch[k, : self.obs_dims[k]], explore=explore)
            )
            for k, agent in enumerate(self.agents)
        ]


class VectorRunner:
    """Runs a batched policy over a vector env, one episode set at a time.

    Parameters
    ----------
    vec_env:
        A :class:`~repro.sim.VectorHVACEnv` constructed with
        ``autoreset=False`` (the runner owns episode boundaries; envs
        that finish early freeze until the fleet is done).
    policy:
        Anything exposing ``select_actions(obs_batch, *, explore=False)``
        (and optionally ``begin_episode``); see :class:`PerEnvPolicy`.
    """

    def __init__(self, vec_env, policy) -> None:
        if getattr(vec_env, "autoreset", False):
            raise ValueError(
                "VectorRunner requires a vector env with autoreset=False"
            )
        self.vec_env = vec_env
        self.policy = policy

    def run(
        self, *, explore: bool = False, max_steps: int = 100_000
    ) -> List[EpisodeMetrics]:
        """Run one episode per env; returns per-env metrics, fleet order."""
        check_positive("max_steps", max_steps)
        env = self.vec_env
        n = env.n_envs
        obs = env.reset()
        if hasattr(self.policy, "begin_episode"):
            self.policy.begin_episode(obs)

        ep_return = np.zeros(n)
        cost = np.zeros(n)
        energy = np.zeros(n)
        violation = np.zeros(n)
        occupied_steps = np.zeros(n, dtype=int)
        occupied_violation_steps = np.zeros(n, dtype=int)
        steps = np.zeros(n, dtype=int)

        fleet_steps = 0
        while not np.all(env.dones) and fleet_steps < max_steps:
            actions = self.policy.select_actions(obs, explore=explore)
            obs, rewards, _, info = env.step(actions)
            active = info.active
            ep_return += rewards
            cost += info.cost_usd
            energy += info.energy_kwh
            violation += info.violation_deg_hours
            occupied_steps += info.occupied.sum(axis=1)
            occupied_violation_steps += (
                (info.violation_per_zone_deg > 0.0) & info.occupied
            ).sum(axis=1)
            steps += active.astype(int)
            fleet_steps += 1

        return [
            EpisodeMetrics(
                episode_return=float(ep_return[k]),
                cost_usd=float(cost[k]),
                energy_kwh=float(energy[k]),
                violation_deg_hours=float(violation[k]),
                occupied_steps=int(occupied_steps[k]),
                occupied_violation_steps=int(occupied_violation_steps[k]),
                steps=int(steps[k]),
            )
            for k in range(n)
        ]

    def evaluate(self, n_episodes: int = 1) -> List[EvaluationSummary]:
        """Greedy evaluation: ``n_episodes`` per env, summarized per env."""
        check_positive("n_episodes", n_episodes)
        per_env: List[List[EpisodeMetrics]] = [[] for _ in range(self.vec_env.n_envs)]
        for _ in range(n_episodes):
            for k, metrics in enumerate(self.run(explore=False)):
                per_env[k].append(metrics)
        return [summarize_episodes(episodes) for episodes in per_env]
