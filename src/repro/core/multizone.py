"""The multi-zone scaling heuristic: factored per-zone Q-learning.

A joint DQN over ``z`` zones with ``m`` airflow levels needs ``m**z``
outputs — the exponential blow-up the DAC'17 paper's heuristic avoids.
:class:`FactoredDQNAgent` gives each zone its own Q-head over only its
``m`` local levels and trains every head on the **shared global reward**
(the "independent learners" decomposition).  Action selection is then a
per-zone argmax, so both network size and action enumeration stay linear
in the number of zones.

Credit assignment uses the environment's **per-zone reward
decomposition** when available (``info["reward_per_zone"]``: energy cost
attributed by airflow share, comfort penalty by the zone's own
violation; the components sum exactly to the scalar reward).  Without
it, every head falls back to the shared global reward.

The approximation this makes — that the joint Q decomposes additively
across zones — is exactly what experiment E7 quantifies against the
joint-action agent.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional

import numpy as np

from repro import nn
from repro.core.agent import AgentBase, owed_learn_steps
from repro.core.dqn import DQNConfig
from repro.core.replay import ReplayBuffer
from repro.core.schedules import LinearSchedule, schedule_from_state
from repro.env.spaces import MultiDiscrete
from repro.utils.seeding import (
    RandomState,
    derive_rng,
    ensure_rng,
    rng_state,
    set_rng_state,
)


def _hidden_from_net_state(net_state: dict) -> tuple:
    """Hidden-layer widths recovered from an ``nn.state_dict`` payload.

    Parameters are stored in order as (weight, bias) pairs per Linear;
    every weight but the output layer's contributes its column count.
    """
    entries = sorted(net_state.items(), key=lambda kv: int(kv[0].split(":", 1)[0]))
    widths = [
        entry["shape"][1] for _, entry in entries if len(entry["shape"]) == 2
    ]
    if len(widths) < 2:
        raise ValueError("network state has no hidden layers to infer")
    return tuple(int(w) for w in widths[:-1])


class FactoredDQNAgent(AgentBase):
    """Per-zone Q-heads trained as independent learners on shared reward."""

    def __init__(
        self,
        obs_dim: int,
        action_space: MultiDiscrete,
        *,
        config: Optional[DQNConfig] = None,
        rng: RandomState | int | None = None,
    ) -> None:
        self.config = config if config is not None else DQNConfig()
        self.action_space = action_space
        self.obs_dim = int(obs_dim)
        self.n_zones = len(action_space.nvec)
        self.levels_per_zone = [int(n) for n in action_space.nvec]

        rng = ensure_rng(rng)
        self._explore_rng = derive_rng(rng, "explore")
        self._sample_rng = derive_rng(rng, "replay")

        self.online: List[nn.MLP] = []
        self.target: List[nn.MLP] = []
        self.optimizers: List[nn.Adam] = []
        for z, n_levels in enumerate(self.levels_per_zone):
            net = nn.MLP(
                self.obs_dim,
                self.config.hidden,
                n_levels,
                rng=derive_rng(rng, f"zone{z}"),
            )
            self.online.append(net)
            self.target.append(net.clone())
            self.optimizers.append(nn.Adam(net.parameters(), lr=self.config.learning_rate))

        self.buffer = ReplayBuffer(
            self.config.buffer_capacity,
            self.obs_dim,
            action_dim=self.n_zones,
            reward_dim=self.n_zones,
        )
        self.epsilon_schedule = LinearSchedule(
            self.config.epsilon_start,
            self.config.epsilon_end,
            self.config.epsilon_decay_steps,
        )
        self.total_steps = 0
        self.total_updates = 0
        # Per-step scratch: the row-index vector and one dense gradient
        # buffer, viewed as a C-contiguous (batch, levels) array per head;
        # each head re-zeros its touched entries after its backward pass.
        # The per-head training passes are built at the first learn step.
        batch = self.config.batch_size
        self._batch_rows = np.arange(batch)
        grad_flat = np.zeros(batch * max(self.levels_per_zone))
        self._grad_scratch = [
            grad_flat[: batch * n].reshape(batch, n) for n in self.levels_per_zone
        ]
        self._passes: Optional[List[tuple]] = None
        self._stacked_obs: Optional[np.ndarray] = None

    # ------------------------------------------------------------- policies
    @property
    def epsilon(self) -> float:
        """Current exploration rate."""
        return self.epsilon_schedule.value(self.total_steps)

    def q_values(self, obs: np.ndarray) -> List[np.ndarray]:
        """Per-zone Q-value vectors for a single observation."""
        obs = np.asarray(obs, dtype=np.float64)
        return [net.forward(obs) for net in self.online]

    def select_action(self, obs: np.ndarray, *, explore: bool = False) -> np.ndarray:
        """Per-zone ε-greedy: each zone explores independently."""
        levels = np.zeros(self.n_zones, dtype=int)
        eps = self.epsilon
        per_zone_q = None
        for z in range(self.n_zones):
            if explore and self._explore_rng.random() < eps:
                levels[z] = int(self._explore_rng.integers(self.levels_per_zone[z]))
            else:
                if per_zone_q is None:
                    per_zone_q = self.q_values(obs)
                levels[z] = int(np.argmax(per_zone_q[z]))
        return levels

    def select_actions(
        self, obs_batch: np.ndarray, *, explore: bool = False
    ) -> np.ndarray:
        """Batched policy: one forward pass per zone head serves N rows.

        Returns an ``(n, zones)`` array of per-zone levels.  With
        ``explore=True`` each (row, zone) pair independently takes a
        uniform random level with probability ε — the batched analogue of
        the scalar per-zone ε-greedy rule.
        """
        obs_batch = np.asarray(obs_batch, dtype=np.float64)
        if obs_batch.ndim != 2:
            raise ValueError(
                f"obs_batch must be 2-D (n, obs_dim), got shape {obs_batch.shape}"
            )
        n = obs_batch.shape[0]
        levels = np.zeros((n, self.n_zones), dtype=int)
        eps = self.epsilon
        for z, net in enumerate(self.online):
            if explore:
                random_rows = self._explore_rng.random(n) < eps
            else:
                random_rows = np.zeros(n, dtype=bool)
            greedy_rows = ~random_rows
            if np.any(greedy_rows):
                q = net.forward(obs_batch[greedy_rows])
                levels[greedy_rows, z] = np.argmax(q, axis=1)
            if np.any(random_rows):
                levels[random_rows, z] = self._explore_rng.integers(
                    self.levels_per_zone[z], size=int(random_rows.sum())
                )
        return levels

    # ------------------------------------------------------------- learning
    def store(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_obs: np.ndarray,
        done: bool,
        info: Optional[dict] = None,
    ) -> None:
        if info is not None and "reward_per_zone" in info:
            per_zone = np.asarray(info["reward_per_zone"], dtype=np.float64)
            if per_zone.shape != (self.n_zones,):
                raise ValueError(
                    f"reward_per_zone must have shape ({self.n_zones},), "
                    f"got {per_zone.shape}"
                )
        else:
            # Fallback: shared global reward for every head.
            per_zone = np.full(self.n_zones, float(reward))
        self.buffer.add(obs, action, per_zone, next_obs, done)
        self.total_steps += 1

    def store_batch(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_obs: np.ndarray,
        dones: np.ndarray,
        infos: Optional[dict] = None,
    ) -> int:
        """Bulk :meth:`store`: ``n`` transitions in one sliced write.

        ``infos["reward_per_zone"]`` (an ``(n, zones)`` array) routes the
        environment's per-zone reward decomposition to the heads; without
        it every head falls back to the shared global reward.  Returns
        the number of transitions ingested; call :meth:`learn_batch`
        afterwards for the gradient steps they are owed.
        """
        rewards = np.asarray(rewards, dtype=np.float64)
        n = rewards.shape[0]
        if infos is not None and "reward_per_zone" in infos:
            per_zone = np.asarray(infos["reward_per_zone"], dtype=np.float64)
            if per_zone.shape != (n, self.n_zones):
                raise ValueError(
                    f"reward_per_zone must have shape ({n}, {self.n_zones}), "
                    f"got {per_zone.shape}"
                )
        else:
            per_zone = np.broadcast_to(rewards[:, None], (n, self.n_zones))
        self.buffer.add_batch(obs, actions, per_zone, next_obs, dones)
        self.total_steps += n
        return n

    def learn_batch(self, n_new_steps: int) -> List[float]:
        """Gradient steps owed after a :meth:`store_batch` of ``n`` rows
        (one per ``train_every`` boundary crossed past ``learn_start``,
        matching the per-row store-then-learn cadence)."""
        cfg = self.config
        return [
            self._learn_step()
            for _ in owed_learn_steps(
                self.total_steps, n_new_steps, cfg.learn_start, cfg.train_every
            )
        ]

    def learn(self) -> Optional[float]:
        """One gradient step per zone head on a shared sampled batch."""
        cfg = self.config
        if self.total_steps < cfg.learn_start:
            return None
        if self.total_steps % cfg.train_every != 0:
            return None
        return self._learn_step()

    def _build_passes(self) -> None:
        """Allocate each head's online and target training passes.

        With double DQN the online passes forward ``[obs; next_obs]``
        stacked (one buffer shared by every head) and backpropagate from
        the ``obs`` half.
        """
        batch = self.config.batch_size
        rows = 2 * batch if self.config.double_dqn else batch
        if self.config.double_dqn:
            self._stacked_obs = np.zeros((rows, self.obs_dim))
        self._passes = [
            (
                nn.TrainingPass(online, rows, grad_rows=batch),
                nn.TrainingPass(target, batch),
            )
            for online, target in zip(self.online, self.target)
        ]

    def _learn_step(self) -> float:
        """The per-head gradient steps themselves (gating already passed)."""
        cfg = self.config
        if self._passes is None:
            self._build_passes()
        n = cfg.batch_size
        batch = self.buffer.sample(n, self._sample_rng)
        not_done = ~batch["dones"]
        rows = self._batch_rows
        rewards = batch["rewards"]
        if rewards.ndim == 1:  # single-zone buffers squeeze the reward dim
            rewards = rewards[:, None]
        x = self._stacked_obs
        if x is not None:
            x[:n] = batch["obs"]
            x[n:] = batch["next_obs"]
        else:
            x = batch["obs"]

        total_loss = 0.0
        for z, (online_pass, target_pass) in enumerate(self._passes):
            opt = self.optimizers[z]
            q = online_pass.forward(x)
            q_next = target_pass.forward(batch["next_obs"])
            if cfg.double_dqn:
                next_value = q_next[rows, np.argmax(q[n:], axis=1)]
            else:
                next_value = q_next.max(axis=1)
            targets = rewards[:, z] + cfg.gamma * not_done * next_value

            actions = batch["actions"][:, z]
            pred = q[rows, actions]
            loss, dpred = nn.huber_loss(pred, targets, return_grad=True)
            grad = self._grad_scratch[z]
            grad[rows, actions] = dpred
            online_pass.backward(grad)
            nn.clip_gradients(opt.params, cfg.grad_clip_norm)
            opt.step()
            grad[rows, actions] = 0.0
            total_loss += float(loss)

        self.total_updates += 1
        if self.total_updates % cfg.target_sync_every == 0:
            for online, target in zip(self.online, self.target):
                target.copy_weights_from(online)
        return float(total_loss / self.n_zones)

    # -------------------------------------------------------- checkpointing
    def state_dict(
        self,
        *,
        include_buffer: bool = True,
        buffer_max_transitions: Optional[int] = None,
    ) -> dict:
        """Serialize all per-zone heads, optimizers, buffer, and RNG streams
        (same contract as :meth:`repro.core.dqn.DQNAgent.state_dict`)."""
        buffer_state = None
        if include_buffer:
            buffer_state = self.buffer.state_dict(
                max_transitions=buffer_max_transitions
            )
        return {
            "kind": "factored_dqn",
            "obs_dim": self.obs_dim,
            "nvec": self.action_space.nvec.tolist(),
            "config": asdict(self.config),
            "online": [nn.state_dict(net) for net in self.online],
            "target": [nn.state_dict(net) for net in self.target],
            "optimizers": [nn.optimizer_state_dict(opt) for opt in self.optimizers],
            "epsilon_schedule": self.epsilon_schedule.state_dict(),
            "total_steps": self.total_steps,
            "total_updates": self.total_updates,
            "explore_rng": rng_state(self._explore_rng),
            "sample_rng": rng_state(self._sample_rng),
            "buffer": buffer_state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this agent."""
        if state.get("kind") != "factored_dqn":
            raise ValueError(
                f"not a factored DQN state (kind={state.get('kind')!r})"
            )
        if list(state["nvec"]) != self.action_space.nvec.tolist():
            raise ValueError(
                f"action-space mismatch: agent has {self.action_space.nvec.tolist()}, "
                f"state has {list(state['nvec'])}"
            )
        for net, net_state in zip(self.online, state["online"]):
            nn.load_state_dict(net, net_state)
        for net, net_state in zip(self.target, state["target"]):
            nn.load_state_dict(net, net_state)
        for opt, opt_state in zip(self.optimizers, state["optimizers"]):
            nn.load_optimizer_state_dict(opt, opt_state)
        self.epsilon_schedule = schedule_from_state(state["epsilon_schedule"])
        self.total_steps = int(state["total_steps"])
        self.total_updates = int(state["total_updates"])
        set_rng_state(self._explore_rng, state["explore_rng"])
        set_rng_state(self._sample_rng, state["sample_rng"])
        if state.get("buffer") is not None:
            self.buffer.load_state_dict(state["buffer"])

    @classmethod
    def from_state_dict(cls, state: dict) -> "FactoredDQNAgent":
        """Reconstruct an agent purely from a :meth:`state_dict` payload.

        Snapshots written before the config was recorded (early store
        releases) are still loadable: the hidden-layer widths are
        inferred from the first zone head's parameter shapes.
        """
        if state.get("config") is not None:
            config = dict(state["config"])
            config["hidden"] = tuple(config["hidden"])
            # Pre-sum-tree checkpoints carry no per_method key; restore
            # under the sampler that produced their RNG history.
            config.setdefault("per_method", "scan")
            config = DQNConfig(**config)
        else:
            config = DQNConfig(hidden=_hidden_from_net_state(state["online"][0]))
        agent = cls(
            int(state["obs_dim"]),
            MultiDiscrete(state["nvec"]),
            config=config,
            rng=0,
        )
        agent.load_state_dict(state)
        return agent

    # ------------------------------------------------------------- scaling
    def num_q_outputs(self) -> int:
        """Total Q outputs across heads — linear in zones (vs m**z joint)."""
        return sum(self.levels_per_zone)
