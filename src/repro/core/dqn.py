"""Deep Q-network controller over the joint multi-zone action space.

This is the paper's algorithm: an MLP maps the HVAC state vector to one
Q-value per **joint** action (the Cartesian product of per-zone airflow
levels), trained with experience replay, a periodically synchronized
target network, ε-greedy exploration, and the Huber TD loss.  The
optional double-DQN target decouples action selection from evaluation
(ablated in experiment E8).

For many zones the joint action space grows as ``levels**zones``; the
paper's scaling heuristic is implemented separately in
:mod:`repro.core.multizone`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from repro import nn
from repro.core.agent import AgentBase, owed_learn_steps
from repro.core.prioritized_replay import PrioritizedReplayBuffer
from repro.core.replay import ReplayBuffer
from repro.core.schedules import LinearSchedule, Schedule, schedule_from_state
from repro.env.spaces import MultiDiscrete
from repro.utils.seeding import (
    RandomState,
    derive_rng,
    ensure_rng,
    rng_state,
    set_rng_state,
)
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class DQNConfig:
    """Hyperparameters of the DQN controller.

    Defaults follow the paper's regime scaled to the NumPy substrate:
    two hidden layers, Adam, replay of ~50 episode-days, target sync every
    few hundred updates, ε decaying linearly over the exploration budget.
    """

    hidden: Tuple[int, ...] = (64, 64)
    gamma: float = 0.99
    learning_rate: float = 1e-3
    batch_size: int = 32
    buffer_capacity: int = 20_000
    learn_start: int = 500
    train_every: int = 1
    target_sync_every: int = 200
    double_dqn: bool = True
    grad_clip_norm: float = 10.0
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 5_000
    use_replay: bool = True
    use_target_network: bool = True
    # Extensions beyond the paper's controller (default off; see E10).
    dueling: bool = False
    target_tau: Optional[float] = None  # Polyak soft updates when set
    prioritized_replay: bool = False
    per_alpha: float = 0.6
    per_beta_start: float = 0.4
    per_beta_end: float = 1.0
    per_beta_decay_steps: int = 20_000
    # Sampling backend for prioritized replay: "tree" (O(log n) sum-tree)
    # or "scan" (the legacy O(n) draw; pin it to resume pre-tree runs
    # bit-exactly).  Ignored without prioritized_replay.
    per_method: str = "tree"

    def __post_init__(self) -> None:
        if not self.hidden:
            raise ValueError("hidden must contain at least one layer width")
        check_in_range("gamma", self.gamma, 0.0, 1.0)
        check_positive("learning_rate", self.learning_rate)
        check_positive("batch_size", self.batch_size)
        check_positive("buffer_capacity", self.buffer_capacity)
        check_positive("train_every", self.train_every)
        check_positive("target_sync_every", self.target_sync_every)
        check_positive("grad_clip_norm", self.grad_clip_norm)
        check_in_range("epsilon_start", self.epsilon_start, 0.0, 1.0)
        check_in_range("epsilon_end", self.epsilon_end, 0.0, 1.0)
        check_positive("epsilon_decay_steps", self.epsilon_decay_steps)
        if self.learn_start < self.batch_size:
            raise ValueError(
                f"learn_start ({self.learn_start}) must be >= batch_size "
                f"({self.batch_size})"
            )
        if self.target_tau is not None:
            check_in_range("target_tau", self.target_tau, 0.0, 1.0, inclusive=False)
        check_in_range("per_alpha", self.per_alpha, 0.0, 1.0)
        check_in_range("per_beta_start", self.per_beta_start, 0.0, 1.0)
        check_in_range("per_beta_end", self.per_beta_end, 0.0, 1.0)
        check_positive("per_beta_decay_steps", self.per_beta_decay_steps)
        if self.per_method not in ("scan", "tree"):
            raise ValueError(
                f"per_method must be 'scan' or 'tree', got {self.per_method!r}"
            )
        if self.prioritized_replay and not self.use_replay:
            raise ValueError("prioritized_replay requires use_replay=True")


class DQNAgent(AgentBase):
    """DQN over the flattened joint action space of a ``MultiDiscrete``.

    Parameters
    ----------
    obs_dim:
        Observation dimensionality (``env.obs_dim``).
    action_space:
        The environment's ``MultiDiscrete`` action space; internally the
        agent acts on its flattened joint index.
    config:
        Hyperparameters.
    rng:
        Seed or generator driving init, exploration, and replay sampling.
    """

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
        self.n_actions = action_space.n_joint

        rng = ensure_rng(rng)
        self._explore_rng = derive_rng(rng, "explore")
        self._sample_rng = derive_rng(rng, "replay")

        net_cls = nn.DuelingMLP if self.config.dueling else nn.MLP
        self.online = net_cls(
            self.obs_dim, self.config.hidden, self.n_actions, rng=derive_rng(rng, "net")
        )
        self.target = self.online.clone()
        self.optimizer = nn.Adam(self.online.parameters(), lr=self.config.learning_rate)

        capacity = self.config.buffer_capacity if self.config.use_replay else self.config.batch_size
        if self.config.prioritized_replay:
            self.buffer: ReplayBuffer = PrioritizedReplayBuffer(
                capacity,
                self.obs_dim,
                action_dim=1,
                alpha=self.config.per_alpha,
                method=self.config.per_method,
            )
        else:
            self.buffer = ReplayBuffer(capacity, self.obs_dim, action_dim=1)
        self.epsilon_schedule: Schedule = LinearSchedule(
            self.config.epsilon_start,
            self.config.epsilon_end,
            self.config.epsilon_decay_steps,
        )
        self._beta_schedule = LinearSchedule(
            self.config.per_beta_start,
            self.config.per_beta_end,
            self.config.per_beta_decay_steps,
        )
        self.total_steps = 0
        self.total_updates = 0
        # Per-step scratch reused across learn() calls: the row-index
        # vector, the uniform-replay weight vector (all ones, never
        # written), and the dense gradient buffer whose touched entries
        # are re-zeroed after each backward pass — so the hot loop
        # allocates no O(batch x actions) arrays.  The training passes
        # and the stacked-observation buffer are built at the first
        # learn step (see _build_passes), so agents that only act or
        # serve never pay for them.
        batch = self.config.batch_size
        self._batch_rows = np.arange(batch)
        self._uniform_weights = np.ones(batch)
        self._grad_scratch = np.zeros((batch, self.n_actions))
        self._online_pass: Optional[nn.TrainingPass] = None
        self._target_pass: Optional[nn.TrainingPass] = None
        self._stacked_obs: Optional[np.ndarray] = None

    # ------------------------------------------------------------- policies
    @property
    def epsilon(self) -> float:
        """Current exploration rate."""
        return self.epsilon_schedule.value(self.total_steps)

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        """Q-values of every joint action for a single observation."""
        return self.online.forward(np.asarray(obs, dtype=np.float64))

    def select_action(self, obs: np.ndarray, *, explore: bool = False) -> np.ndarray:
        """ε-greedy (``explore=True``) or greedy per-zone level vector."""
        if explore and self._explore_rng.random() < self.epsilon:
            joint = int(self._explore_rng.integers(self.n_actions))
        else:
            joint = int(np.argmax(self.q_values(obs)))
        return self.action_space.unflatten(joint)

    def select_actions(
        self, obs_batch: np.ndarray, *, explore: bool = False
    ) -> np.ndarray:
        """Batched policy: one forward pass serves N observations.

        Returns an ``(n, zones)`` array of per-zone levels.  With
        ``explore=True`` each row independently takes a uniform random
        joint action with probability ε (the batched analogue of the
        scalar ε-greedy rule).
        """
        obs_batch = np.asarray(obs_batch, dtype=np.float64)
        if obs_batch.ndim != 2:
            raise ValueError(
                f"obs_batch must be 2-D (n, obs_dim), got shape {obs_batch.shape}"
            )
        n = obs_batch.shape[0]
        if explore:
            random_rows = self._explore_rng.random(n) < self.epsilon
        else:
            random_rows = np.zeros(n, dtype=bool)
        joint = np.zeros(n, dtype=int)
        greedy_rows = ~random_rows
        # Only the greedy rows need Q-values; exploring rows' argmax would
        # be discarded, which matters when ε is near 1 early in training.
        if np.any(greedy_rows):
            q = self.online.forward(obs_batch[greedy_rows])
            joint[greedy_rows] = np.argmax(q, axis=1)
        if np.any(random_rows):
            joint[random_rows] = self._explore_rng.integers(
                self.n_actions, size=int(random_rows.sum())
            )
        return self.action_space.unflatten_batch(joint)

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
        joint = self.action_space.flatten(action)
        self.buffer.add(obs, joint, reward, next_obs, done)
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
        """Bulk :meth:`store`: ``n`` transitions land in the replay buffer
        via one sliced write instead of ``n`` Python-level adds.

        ``infos`` (batched step-info arrays) is accepted for interface
        symmetry with :meth:`store`; the joint-action agent ignores it.
        Returns the number of transitions ingested.  Call
        :meth:`learn_batch` afterwards to run the gradient steps those
        transitions are owed.
        """
        joint = self.action_space.flatten_batch(actions)
        self.buffer.add_batch(obs, joint, rewards, next_obs, dones)
        n = int(joint.shape[0])
        self.total_steps += n
        return n

    def learn_batch(self, n_new_steps: int) -> list:
        """Gradient steps owed after a :meth:`store_batch` of ``n`` rows.

        Runs one update per ``train_every`` boundary the batch crossed
        past ``learn_start`` — the same cadence the per-row
        store-then-learn loop produces — each sampling from the fully
        ingested buffer.  Returns the losses (possibly empty).
        """
        cfg = self.config
        return [
            self._learn_step(step)
            for step in owed_learn_steps(
                self.total_steps, n_new_steps, cfg.learn_start, cfg.train_every
            )
        ]

    def learn(self) -> Optional[float]:
        """One replay-sampled gradient step on the Huber TD loss.

        With prioritized replay the per-sample gradients carry
        importance-sampling weights and the sampled transitions'
        priorities are refreshed from their new TD errors.
        """
        cfg = self.config
        if self.total_steps < cfg.learn_start:
            return None
        if self.total_steps % cfg.train_every != 0:
            return None
        return self._learn_step(self.total_steps)

    def _build_passes(self) -> None:
        """Allocate the training passes the learn step runs through.

        The online net's pass forwards ``[obs; next_obs]`` stacked
        whenever the bootstrap reads online Q-values of ``next_obs``
        (double DQN, or no target network), and backpropagates from the
        ``obs`` half; the target net gets a forward-only pass.
        """
        cfg = self.config
        batch = cfg.batch_size
        stacked = cfg.double_dqn or not cfg.use_target_network
        if stacked:
            self._stacked_obs = np.zeros((2 * batch, self.obs_dim))
        self._online_pass = nn.TrainingPass(
            self.online, 2 * batch if stacked else batch, grad_rows=batch
        )
        if cfg.use_target_network:
            self._target_pass = nn.TrainingPass(self.target, batch)

    def _learn_step(self, step: int) -> float:
        """The gradient step itself (gating already passed).

        ``step`` is the agent-step the update is attributed to — it
        drives the prioritized-replay β anneal.  One fused pass: sample,
        one stacked online forward, bootstrapped TD(0) targets,
        weighted-Huber gradient through the reused scratch buffer,
        backward into the optimizer's packed grads, optimizer step,
        priority refresh, target sync.
        """
        cfg = self.config
        if self._online_pass is None:
            self._build_passes()
        prioritized = isinstance(self.buffer, PrioritizedReplayBuffer)
        if prioritized:
            beta = self._beta_schedule.value(step)
            batch = self.buffer.sample(cfg.batch_size, self._sample_rng, beta=beta)
            weights = batch["weights"]
        else:
            batch = self.buffer.sample(cfg.batch_size, self._sample_rng)
            weights = self._uniform_weights
        actions = batch["actions"][:, 0]
        rows = self._batch_rows
        n = cfg.batch_size

        stacked = self._stacked_obs
        if stacked is not None:
            stacked[:n] = batch["obs"]
            stacked[n:] = batch["next_obs"]
            q = self._online_pass.forward(stacked)
        else:
            q = self._online_pass.forward(batch["obs"])
        # Bootstrapped TD(0) targets; double DQN picks the next action
        # with the online net and evaluates it with the target net.
        if not cfg.use_target_network:
            next_value = q[n:].max(axis=1)
        else:
            q_next = self._target_pass.forward(batch["next_obs"])
            if cfg.double_dqn:
                next_value = q_next[rows, np.argmax(q[n:], axis=1)]
            else:
                next_value = q_next.max(axis=1)
        not_done = ~batch["dones"]
        targets = batch["rewards"] + cfg.gamma * not_done * next_value

        pred = q[rows, actions]
        td_error = pred - targets
        # Weighted Huber: quadratic within 1 of the target, linear outside.
        abs_td = np.abs(td_error)
        per_sample = np.where(abs_td <= 1.0, 0.5 * td_error**2, abs_td - 0.5)
        loss = float(np.mean(weights * per_sample))
        dpred = weights * np.clip(td_error, -1.0, 1.0) / len(actions)

        grad = self._grad_scratch
        grad[rows, actions] = dpred
        self._online_pass.backward(grad)
        nn.clip_gradients(self.optimizer.params, cfg.grad_clip_norm)
        self.optimizer.step()
        # Re-zero only the touched entries — O(batch), not O(batch x
        # actions) — so the scratch is clean for the next step.
        grad[rows, actions] = 0.0

        if prioritized:
            self.buffer.update_priorities(batch["indices"], td_error)

        self.total_updates += 1
        if cfg.use_target_network:
            if cfg.target_tau is not None:
                self.target.soft_update_from(self.online, cfg.target_tau)
            elif self.total_updates % cfg.target_sync_every == 0:
                self.target.copy_weights_from(self.online)
        return float(loss)

    # -------------------------------------------------------- checkpointing
    def state_dict(
        self,
        *,
        include_buffer: bool = True,
        buffer_max_transitions: Optional[int] = None,
    ) -> dict:
        """Serialize the full learning state to a JSON-safe dict.

        Covers network weights (online + target), optimizer moments, the
        replay buffer (optionally truncated via ``buffer_max_transitions``,
        or dropped with ``include_buffer=False`` for inference-only
        checkpoints), step counters, the ε-schedule, and both RNG streams —
        everything needed for :meth:`load_state_dict` to continue an
        interrupted run bit-for-bit.
        """
        buffer_state = None
        if include_buffer:
            buffer_state = self.buffer.state_dict(
                max_transitions=buffer_max_transitions
            )
        return {
            "kind": "dqn",
            "obs_dim": self.obs_dim,
            "nvec": self.action_space.nvec.tolist(),
            "config": asdict(self.config),
            "online": nn.state_dict(self.online),
            "target": nn.state_dict(self.target),
            "optimizer": nn.optimizer_state_dict(self.optimizer),
            "epsilon_schedule": self.epsilon_schedule.state_dict(),
            "total_steps": self.total_steps,
            "total_updates": self.total_updates,
            "explore_rng": rng_state(self._explore_rng),
            "sample_rng": rng_state(self._sample_rng),
            "buffer": buffer_state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this agent.

        The agent must have been constructed with the same observation
        dimensionality, action space, and architecture.  A snapshot saved
        without its buffer leaves the current buffer contents untouched.
        """
        if state.get("kind") != "dqn":
            raise ValueError(f"not a DQN agent state (kind={state.get('kind')!r})")
        if int(state["obs_dim"]) != self.obs_dim:
            raise ValueError(
                f"obs_dim mismatch: agent has {self.obs_dim}, "
                f"state has {state['obs_dim']}"
            )
        if list(state["nvec"]) != self.action_space.nvec.tolist():
            raise ValueError(
                f"action-space mismatch: agent has {self.action_space.nvec.tolist()}, "
                f"state has {list(state['nvec'])}"
            )
        nn.load_state_dict(self.online, state["online"])
        nn.load_state_dict(self.target, state["target"])
        nn.load_optimizer_state_dict(self.optimizer, state["optimizer"])
        self.epsilon_schedule = schedule_from_state(state["epsilon_schedule"])
        self.total_steps = int(state["total_steps"])
        self.total_updates = int(state["total_updates"])
        set_rng_state(self._explore_rng, state["explore_rng"])
        set_rng_state(self._sample_rng, state["sample_rng"])
        if state.get("buffer") is not None:
            self.buffer.load_state_dict(state["buffer"])

    @classmethod
    def from_state_dict(cls, state: dict) -> "DQNAgent":
        """Reconstruct an agent purely from a :meth:`state_dict` payload."""
        config = dict(state["config"])
        config["hidden"] = tuple(config["hidden"])
        # Checkpoints that predate the sum-tree carry no per_method key;
        # their RNG history was produced by the scan sampler, so resume
        # under it rather than the newer default.
        config.setdefault("per_method", "scan")
        agent = cls(
            int(state["obs_dim"]),
            MultiDiscrete(state["nvec"]),
            config=DQNConfig(**config),
            rng=0,
        )
        agent.load_state_dict(state)
        return agent
