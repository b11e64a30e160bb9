"""Byte pins of the DQN learners' gradient steps.

Each case feeds a fixed stream of synthetic transitions through
``store_batch``/``learn_batch`` for 600 gradient steps and compares the
sha256 of the online weights and of the exact loss list against digests
recorded before the learners ran on the fused training pass.  Any change
to the learn step's arithmetic (forward, backward, clipping, Adam, target
sync) shows up here as a named drifted case.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import DQNAgent, DQNConfig, FactoredDQNAgent
from repro.env.spaces import MultiDiscrete

OBS_DIM = 8
LEARN_STEPS = 600
CHUNK = 16  # rows per store_batch, as a small fleet would ingest them

BASE = dict(
    learn_start=64,
    buffer_capacity=256,
    target_sync_every=50,
    per_beta_decay_steps=400,
)

CONFIGS = {
    "default": {},
    "plain": {"double_dqn": False},
    "no-target": {"use_target_network": False},
    "no-replay": {"use_replay": False},
    "dueling": {"dueling": True},
    "per-tree": {"prioritized_replay": True, "per_method": "tree"},
    "per-scan": {"prioritized_replay": True, "per_method": "scan"},
    "polyak": {"target_tau": 0.01},
}

NVECS = {"1zone": [3], "2zone": [3, 2]}


def transition_stream(nvec, seed, n_rows):
    """A seeded stream of ``(obs, actions, rewards, next_obs, dones, per_zone)``."""
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n_rows, OBS_DIM))
    next_obs = obs + 0.1 * rng.normal(size=(n_rows, OBS_DIM))
    actions = np.stack([rng.integers(n, size=n_rows) for n in nvec], axis=1)
    per_zone = rng.normal(size=(n_rows, len(nvec)))
    dones = rng.random(n_rows) < 0.05
    return obs, actions, per_zone.sum(axis=1), next_obs, dones, per_zone


def run_learner(agent, nvec, seed=11):
    """Drive ``LEARN_STEPS`` gradient steps; return (weights, losses) digests."""
    n_rows = agent.config.learn_start + LEARN_STEPS - 1
    obs, actions, rewards, next_obs, dones, per_zone = transition_stream(
        nvec, seed, n_rows
    )
    losses = []
    for lo in range(0, n_rows, CHUNK):
        sl = slice(lo, lo + CHUNK)
        n = agent.store_batch(
            obs[sl], actions[sl], rewards[sl], next_obs[sl], dones[sl],
            {"reward_per_zone": per_zone[sl]},
        )
        losses.extend(agent.learn_batch(n))
    assert len(losses) == LEARN_STEPS
    nets = agent.online if isinstance(agent.online, list) else [agent.online]
    weights = hashlib.sha256()
    for net in nets:
        for p in net.parameters():
            weights.update(p.value.tobytes())
    loss_digest = hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes())
    return weights.hexdigest()[:16], loss_digest.hexdigest()[:16]


def build(kind, nvec, overrides):
    config = DQNConfig(**{**BASE, **overrides})
    cls = FactoredDQNAgent if kind == "factored" else DQNAgent
    return cls(OBS_DIM, MultiDiscrete(nvec), config=config, rng=5)


# (kind, config, action space) -> (weights sha256[:16], losses sha256[:16]),
# recorded on the per-layer forward/backward learn step.
PINS = {
    ("dqn", "default", "1zone"): ("cb4f645a0c62b1a8", "1fd27f4fd3ee13e8"),
    ("dqn", "default", "2zone"): ("844fe7c06fe487b5", "66a8baf93e9d5f51"),
    ("dqn", "plain", "1zone"): ("0e3fd1b595c89216", "2581aee4535487ad"),
    ("dqn", "plain", "2zone"): ("040a6c93ac799431", "9ee83b2743e7fdf7"),
    ("dqn", "no-target", "1zone"): ("f0f8ac42cc3145cb", "2fc4befbefc77c0d"),
    ("dqn", "no-target", "2zone"): ("24d8b1a32aff6a00", "509ff946cdb9801e"),
    ("dqn", "no-replay", "1zone"): ("846d9571747c1521", "a2fe85bab09c364f"),
    ("dqn", "no-replay", "2zone"): ("829d97a2ab2ed6f3", "08bfd656c1de5869"),
    ("dqn", "dueling", "1zone"): ("e771d50ca4ebde8e", "8d1d96d661cf0a9d"),
    ("dqn", "dueling", "2zone"): ("b7b41ba27237ed7f", "332fc4568bdfa56f"),
    ("dqn", "per-tree", "1zone"): ("3a389b40a56aa059", "9b3254612bc966cb"),
    ("dqn", "per-tree", "2zone"): ("cbda9025dcac2e44", "97c83dfc7a441f46"),
    ("dqn", "per-scan", "1zone"): ("be7d3608a3ee9ce7", "37f29d2fcfd8caf9"),
    ("dqn", "per-scan", "2zone"): ("de32a1c60ae00609", "85fd4f735d00f8d4"),
    ("dqn", "polyak", "1zone"): ("8f7c7ed7a22a0257", "dd76cc705beddfee"),
    ("dqn", "polyak", "2zone"): ("4565436f9246ab8a", "0fda4a98341147d7"),
    ("factored", "default", "2zone"): ("afbefedb718dd0dd", "803ddcc4dd8b06ef"),
    ("factored", "plain", "2zone"): ("ac8d5faa6945ff8c", "cf7e430830f6a703"),
}


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda c: "-".join(c))
def test_learner_bytes_pinned(case):
    kind, config, space = case
    overrides = CONFIGS.get(config, {})
    agent = build(kind, NVECS[space], overrides)
    assert run_learner(agent, NVECS[space]) == PINS[case], case


def test_every_config_is_pinned():
    for config in CONFIGS:
        for space in NVECS:
            assert ("dqn", config, space) in PINS
    assert ("factored", "default", "2zone") in PINS
    assert ("factored", "plain", "2zone") in PINS
