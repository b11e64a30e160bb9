"""The training loop.

``Trainer`` runs episodes against an environment, feeding transitions to
the agent and invoking its learning hook each step, with periodic greedy
evaluation episodes (exploration off) to track true control performance.
All series land in a :class:`~repro.utils.logging.RunLogger` keyed as:

* ``episode_return`` / ``episode_cost_usd`` / ``episode_violation_deg_hours``
  — per training episode;
* ``eval_return`` — greedy evaluation returns;
* ``loss`` — per-update TD losses;
* ``epsilon`` — exploration rate at each episode end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.agent import AgentBase
from repro.env.core import Env
from repro.obs import get_telemetry
from repro.utils.logging import RunLogger
from repro.utils.profiling import PhaseTimer
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TrainerConfig:
    """Training-loop parameters."""

    n_episodes: int = 60
    eval_every: int = 0  # 0 disables periodic greedy evaluation
    max_steps_per_episode: int = 10_000  # safety net over env termination

    def __post_init__(self) -> None:
        check_positive("n_episodes", self.n_episodes)
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        check_positive("max_steps_per_episode", self.max_steps_per_episode)


class Trainer:
    """Runs the agent-environment interaction and learning loop."""

    def __init__(
        self,
        env: Env,
        agent: AgentBase,
        *,
        config: Optional[TrainerConfig] = None,
        logger: Optional[RunLogger] = None,
        profiler: Optional[PhaseTimer] = None,
    ) -> None:
        self.env = env
        self.agent = agent
        self.config = config if config is not None else TrainerConfig()
        self.logger = logger if logger is not None else RunLogger()
        # Optional per-phase wall-clock accounting (action_select /
        # env_step / replay_ingest / learn); None keeps the loop untimed.
        self.profiler = profiler
        self.episodes_completed = 0
        tel = get_telemetry()
        self._tel = tel
        self._tel_enabled = tel.enabled
        self._c_episodes = tel.metric("train.episodes_total")
        self._c_env_steps = tel.metric("train.env_steps_total")
        self._c_learn_steps = tel.metric("train.learn_steps_total")
        self._g_epsilon = tel.metric("train.epsilon")

    # ------------------------------------------------------------- episodes
    def run_episode(self, *, explore: bool, learn: bool) -> dict:
        """Run one episode; returns its aggregate metrics."""
        with self._tel.span(
            "train.episode", cat="train", explore=explore, learn=learn
        ):
            return self._run_episode(explore=explore, learn=learn)

    def _run_episode(self, *, explore: bool, learn: bool) -> dict:
        obs = self.env.reset()
        self.agent.begin_episode(obs)
        ep_return = ep_cost = ep_violation = ep_energy = 0.0
        steps = 0
        done = False
        timer = self.profiler
        while not done and steps < self.config.max_steps_per_episode:
            t0 = timer.start() if timer else 0.0
            action = self.agent.select_action(obs, explore=explore)
            if timer:
                timer.stop("action_select", t0)
                t0 = timer.start()
            next_obs, reward, done, info = self.env.step(action)
            if timer:
                timer.stop("env_step", t0)
            if learn:
                t0 = timer.start() if timer else 0.0
                self.agent.store(obs, action, reward, next_obs, done, info=info)
                if timer:
                    timer.stop("replay_ingest", t0)
                    t0 = timer.start()
                loss = self.agent.learn()
                if timer:
                    timer.stop("learn", t0)
                if loss is not None:
                    self.logger.log("loss", loss)
                    if self._tel_enabled:
                        self._c_learn_steps.inc()
            if self._tel_enabled:
                self._c_env_steps.inc()
            obs = next_obs
            ep_return += reward
            ep_cost += float(info.get("cost_usd", 0.0))
            ep_energy += float(info.get("energy_kwh", 0.0))
            ep_violation += float(info.get("violation_deg_hours", 0.0))
            steps += 1
        return {
            "return": ep_return,
            "cost_usd": ep_cost,
            "energy_kwh": ep_energy,
            "violation_deg_hours": ep_violation,
            "steps": steps,
        }

    def train(self, *, until: Optional[int] = None) -> RunLogger:
        """Run training episodes until ``config.n_episodes`` have completed.

        ``episodes_completed`` counts across calls (and across
        :meth:`load_state_dict` restores), so a trainer resumed from a
        checkpoint continues where the interrupted run stopped.  ``until``
        stops early at that episode count (capped by ``config.n_episodes``)
        so callers can checkpoint between chunks.
        """
        target = self.config.n_episodes
        if until is not None:
            target = min(int(until), target)
        with self._tel.span(
            "train.run", cat="train", fleet=1, target_episodes=int(target)
        ):
            return self._train(target)

    def _train(self, target: int) -> RunLogger:
        while self.episodes_completed < target:
            episode = self.episodes_completed
            metrics = self.run_episode(explore=True, learn=True)
            self.logger.log_many(
                episode_return=metrics["return"],
                episode_cost_usd=metrics["cost_usd"],
                episode_energy_kwh=metrics["energy_kwh"],
                episode_violation_deg_hours=metrics["violation_deg_hours"],
                epsilon=getattr(self.agent, "epsilon", 0.0),
            )
            self.episodes_completed += 1
            if self._tel_enabled:
                self._c_episodes.inc()
                self._g_epsilon.set(getattr(self.agent, "epsilon", 0.0))
            if (
                self.config.eval_every
                and (episode + 1) % self.config.eval_every == 0
            ):
                eval_metrics = self.run_episode(explore=False, learn=False)
                self.logger.log("eval_return", eval_metrics["return"])
        return self.logger

    # -------------------------------------------------------- checkpointing
    def state_dict(self, *, buffer_max_transitions: Optional[int] = None) -> dict:
        """Serialize trainer progress, agent, env, and log to a JSON-safe
        dict (checkpoint at an episode boundary, i.e. between ``train()``
        calls)."""
        env_state = None
        if hasattr(self.env, "state_dict"):
            env_state = self.env.state_dict()
        return {
            "kind": "trainer",
            "episodes_completed": self.episodes_completed,
            "agent": self.agent.state_dict(
                buffer_max_transitions=buffer_max_transitions
            ),
            "env": env_state,
            "logger": self.logger.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot; ``train()`` then continues
        the interrupted run (bit-for-bit when the buffer was saved
        untruncated)."""
        if state.get("kind") != "trainer":
            raise ValueError(f"not a trainer state (kind={state.get('kind')!r})")
        self.episodes_completed = int(state["episodes_completed"])
        self.agent.load_state_dict(state["agent"])
        if state.get("env") is not None and hasattr(self.env, "load_state_dict"):
            self.env.load_state_dict(state["env"])
        self.logger.load_state_dict(state["logger"])

    def evaluate(self, n_episodes: int = 1) -> dict:
        """Average greedy-episode metrics over ``n_episodes``."""
        check_positive("n_episodes", n_episodes)
        totals = {"return": 0.0, "cost_usd": 0.0, "energy_kwh": 0.0, "violation_deg_hours": 0.0}
        for _ in range(n_episodes):
            metrics = self.run_episode(explore=False, learn=False)
            for key in totals:
                totals[key] += metrics[key]
        return {key: value / n_episodes for key, value in totals.items()}


#: The batched agent hooks :class:`VectorTrainer` drives.
_BATCH_PROTOCOL = ("select_actions", "store_batch", "learn_batch")


class VectorTrainer:
    """Training loop that collects transitions from a vectorized fleet.

    Every control step performs **one** batched action selection (a
    single Q-network forward pass through ``select_actions``) and
    **one** batched environment step, then feeds the N resulting
    transitions to the agent as one bulk ``store_batch`` write plus the
    ``learn_batch`` updates they are owed.
    Episode series land in the logger under the same keys as
    :class:`Trainer`, one entry per *completed env-episode* (fleet order
    interleaved); ``config.n_episodes`` counts those completions.

    Parameters
    ----------
    vec_env:
        A :class:`~repro.sim.vector_env.VectorHVACEnv` with
        ``autoreset=True`` and a homogeneous fleet (one observation
        layout and action set, so a single network serves every env).
    agent:
        The learning agent.  It must expose the batched protocol:
        ``select_actions``, ``store_batch`` and ``learn_batch`` (both DQN
        agents do).
    """

    def __init__(
        self,
        vec_env,
        agent: AgentBase,
        *,
        config: Optional[TrainerConfig] = None,
        logger: Optional[RunLogger] = None,
        profiler: Optional[PhaseTimer] = None,
    ) -> None:
        missing = [name for name in _BATCH_PROTOCOL if not hasattr(agent, name)]
        if missing:
            raise ValueError(
                f"VectorTrainer requires an agent exposing "
                f"{', '.join(_BATCH_PROTOCOL)}; {type(agent).__name__} lacks "
                f"{', '.join(missing)}"
            )
        if not getattr(vec_env, "autoreset", False):
            raise ValueError("VectorTrainer requires a vector env with autoreset=True")
        if not vec_env.homogeneous:
            raise ValueError(
                "VectorTrainer requires a homogeneous fleet (shared observation "
                "layout and action set)"
            )
        if config is not None and config.eval_every:
            raise ValueError(
                "VectorTrainer does not run periodic greedy evaluation; "
                "set eval_every=0 and evaluate with eval.VectorRunner instead"
            )
        self.vec_env = vec_env
        self.agent = agent
        self.config = config if config is not None else TrainerConfig()
        self.logger = logger if logger is not None else RunLogger()
        self.profiler = profiler
        # Vectorized collection cannot truncate one env's episode mid-fleet,
        # so a cap below the natural episode length would silently diverge
        # from the scalar Trainer's behaviour — reject it instead.
        max_episode_steps = max(int(env.episode_steps) for env in vec_env.envs)
        if self.config.max_steps_per_episode < max_episode_steps:
            raise ValueError(
                f"max_steps_per_episode ({self.config.max_steps_per_episode}) is "
                f"below the fleet's natural episode length ({max_episode_steps}); "
                "per-episode truncation is not supported in vectorized collection"
            )
        # Collection-loop state lives on the instance so training can stop
        # at a fleet-pass boundary, checkpoint, and continue (train() picks
        # up exactly where the counters point).
        n = vec_env.n_envs
        tel = get_telemetry()
        self._tel = tel
        self._tel_enabled = tel.enabled
        self._c_episodes = tel.metric("train.episodes_total")
        self._c_env_steps = tel.metric("train.env_steps_total")
        self._c_learn_steps = tel.metric("train.learn_steps_total")
        self._g_epsilon = tel.metric("train.epsilon")
        self.episodes_done = 0
        self._fleet_steps = 0
        self._obs: Optional[np.ndarray] = None  # None until the first reset
        self._ep_return = np.zeros(n)
        self._ep_cost = np.zeros(n)
        self._ep_energy = np.zeros(n)
        self._ep_violation = np.zeros(n)

    def train(self, *, until: Optional[int] = None) -> RunLogger:
        """Run until ``config.n_episodes`` env-episodes complete.

        ``episodes_done`` persists across calls (and across
        :meth:`load_state_dict`), so training a restored trainer continues
        the interrupted collection loop rather than starting over.
        ``until`` stops early at that env-episode count (capped by
        ``config.n_episodes``) so callers can checkpoint between chunks.
        """
        target = self.config.n_episodes
        if until is not None:
            target = min(int(until), target)
        env = self.vec_env
        n = env.n_envs
        if self._obs is None:
            obs = env.reset()
            # The shared agent's begin_episode hook fires at every
            # env-episode boundary (here and on each autoreset below).  An
            # agent whose begin_episode carries per-episode state should
            # not be shared across a fleet; learning agents like DQN treat
            # it as a no-op.
            for k in range(n):
                self.agent.begin_episode(obs[k])
            self._obs = obs
        obs = self._obs
        max_fleet_steps = self.config.n_episodes * self.config.max_steps_per_episode
        timer = self.profiler
        session_span = self._tel.span(
            "train.run", cat="train", fleet=n, target_episodes=int(target)
        )
        with session_span:
            self._collect(obs, target, max_fleet_steps, timer)
        return self.logger

    def _collect(self, obs, target, max_fleet_steps, timer) -> None:
        env = self.vec_env
        n = env.n_envs
        n_zones = int(env.n_zones[0])
        while (
            self.episodes_done < target
            and self._fleet_steps < max_fleet_steps
        ):
            t0 = timer.start() if timer else 0.0
            actions = np.asarray(self.agent.select_actions(obs, explore=True))
            if timer:
                timer.stop("action_select", t0, calls=n)
                t0 = timer.start()
            next_obs, rewards, dones, info = env.step(actions)
            if timer:
                timer.stop("env_step", t0, calls=n)
            # Bootstrap from the terminal observation, not the autoreset
            # successor episode's first observation.
            if info.terminal_obs is not None:
                boot_next = np.where(dones[:, None], info.terminal_obs, next_obs)
            else:
                boot_next = next_obs
            t0 = timer.start() if timer else 0.0
            stored = self.agent.store_batch(
                obs,
                actions,
                rewards,
                boot_next,
                dones,
                infos={"reward_per_zone": info.reward_per_zone[:, :n_zones]},
            )
            if timer:
                timer.stop("replay_ingest", t0, calls=n)
                t0 = timer.start()
            losses = self.agent.learn_batch(stored)
            if timer:
                timer.stop("learn", t0, calls=n)
            if self._tel_enabled and losses:
                self._c_learn_steps.inc(len(losses))
            for loss in losses:
                self.logger.log("loss", loss)
            if self._tel_enabled:
                self._c_env_steps.inc(n)
            self._ep_return += rewards
            self._ep_cost += info.cost_usd
            self._ep_energy += info.energy_kwh
            self._ep_violation += info.violation_deg_hours
            for k in np.flatnonzero(dones):
                # A synchronized fleet completes n_envs episodes at once;
                # stop logging at exactly the configured count so the
                # episode series matches the scalar Trainer's contract
                # (the final fleet pass may still have collected a few
                # extra transitions for the replay buffer).
                if self.episodes_done >= self.config.n_episodes:
                    break
                self.logger.log_many(
                    episode_return=float(self._ep_return[k]),
                    episode_cost_usd=float(self._ep_cost[k]),
                    episode_energy_kwh=float(self._ep_energy[k]),
                    episode_violation_deg_hours=float(self._ep_violation[k]),
                    epsilon=getattr(self.agent, "epsilon", 0.0),
                )
                self._ep_return[k] = self._ep_cost[k] = 0.0
                self._ep_energy[k] = self._ep_violation[k] = 0.0
                self.episodes_done += 1
                if self._tel_enabled:
                    self._c_episodes.inc()
                    self._g_epsilon.set(getattr(self.agent, "epsilon", 0.0))
                # next_obs[k] is the autoreset successor episode's first
                # observation — the new episode starts now.
                self.agent.begin_episode(next_obs[k])
            obs = next_obs
            self._obs = obs
            self._fleet_steps += 1

    # -------------------------------------------------------- checkpointing
    def state_dict(self, *, buffer_max_transitions: Optional[int] = None) -> dict:
        """Serialize the collection loop, agent, fleet, and log.

        Capture between ``train()`` calls (a fleet-pass boundary).  For a
        bit-for-bit resume, checkpoint with ``config.n_episodes`` a
        multiple of the fleet size so every completed episode has been
        accounted before the loop exits, and leave the buffer untruncated.
        """
        from repro.nn.serialization import encode_array

        return {
            "kind": "vector_trainer",
            "episodes_done": self.episodes_done,
            # Format marker: the run was collected with batched ingest.
            "batched_ingest": True,
            "fleet_steps": self._fleet_steps,
            "obs": None if self._obs is None else encode_array(self._obs),
            "ep_return": self._ep_return.tolist(),
            "ep_cost": self._ep_cost.tolist(),
            "ep_energy": self._ep_energy.tolist(),
            "ep_violation": self._ep_violation.tolist(),
            "agent": self.agent.state_dict(
                buffer_max_transitions=buffer_max_transitions
            ),
            "env": self.vec_env.state_dict(),
            "logger": self.logger.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot; ``train()`` then continues
        the interrupted run."""
        if state.get("kind") != "vector_trainer":
            raise ValueError(
                f"not a vector-trainer state (kind={state.get('kind')!r})"
            )
        if state.get("batched_ingest") is not True:
            # The per-row store/learn loop wrote it: batched ingest feeds
            # the gradient steps other buffer states, so the run cannot
            # continue bit-exactly.
            raise ValueError(
                "checkpoint was collected by the per-row ingest loop "
                f"(batched_ingest={state.get('batched_ingest')!r}), which "
                "VectorTrainer no longer runs; its agent still loads for "
                "serving through repro.serve.registry.agent_from_checkpoint"
            )
        from repro.nn.serialization import decode_array

        n = self.vec_env.n_envs
        for name in ("ep_return", "ep_cost", "ep_energy", "ep_violation"):
            if len(state[name]) != n:
                raise ValueError(
                    f"state {name} has {len(state[name])} entries for "
                    f"{n} envs"
                )
        self.episodes_done = int(state["episodes_done"])
        self._fleet_steps = int(state["fleet_steps"])
        self._obs = None if state["obs"] is None else decode_array(state["obs"])
        self._ep_return = np.asarray(state["ep_return"], dtype=np.float64)
        self._ep_cost = np.asarray(state["ep_cost"], dtype=np.float64)
        self._ep_energy = np.asarray(state["ep_energy"], dtype=np.float64)
        self._ep_violation = np.asarray(state["ep_violation"], dtype=np.float64)
        self.agent.load_state_dict(state["agent"])
        self.vec_env.load_state_dict(state["env"])
        self.logger.load_state_dict(state["logger"])
