"""Model-based myopic oracle.

Enumerates every joint action, simulates one control step with the *true*
simulator — every candidate a row of one control-step kernel call
(:mod:`repro.env.kernel`) against the actual weather — and picks the
action with the best immediate reward.  It is not
optimal — it cannot pre-cool ahead of price peaks — but it is the exact
greedy policy of the true one-step model, a useful reference bound for
model-free agents and a check that the environment's reward surface is
sane.

Only feasible for modest joint action spaces (``levels**zones``); the
constructor guards against combinatorial blow-up.
"""

from __future__ import annotations

import numpy as np

from repro.core.agent import AgentBase
from repro.env.core import Env
from repro.env.hvac_env import HVACEnv


class LookaheadController(AgentBase):
    """One-step exhaustive search over the true simulator model."""

    def __init__(self, env: Env, *, max_joint_actions: int = 4096) -> None:
        inner = env.unwrapped()
        if not isinstance(inner, HVACEnv):
            raise TypeError(
                f"LookaheadController requires an HVACEnv, got {type(inner).__name__}"
            )
        n_joint = inner.action_space.n_joint
        if n_joint > max_joint_actions:
            raise ValueError(
                f"joint action space of {n_joint} exceeds limit {max_joint_actions}"
            )
        self.env = inner
        self._candidates = inner.action_space.unflatten_batch(np.arange(n_joint))

    def candidate_rewards(self) -> np.ndarray:
        """The immediate reward of every joint action from the current
        state, indexed by flat joint action.

        All candidates are rows of one control-step kernel call — the
        call ``env.step`` makes with its single row — so each entry
        equals the reward ``env.step`` would return.
        """
        rows, _ = self.env._step_rows(self._candidates)
        return rows.outcome.reward

    def select_action(self, obs: np.ndarray, *, explore: bool = False) -> np.ndarray:
        # argmax keeps the first of tied candidates, in joint-action order.
        return self._candidates[int(np.argmax(self.candidate_rewards()))].copy()
