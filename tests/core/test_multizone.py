"""Tests for the factored multi-zone agent (the scaling heuristic)."""

import numpy as np
import pytest

from repro.core import DQNConfig, FactoredDQNAgent
from repro.env.spaces import MultiDiscrete


def make_agent(nvec=(4, 4, 4), **over):
    cfg = dict(
        hidden=(16,),
        batch_size=8,
        learn_start=8,
        buffer_capacity=256,
        epsilon_decay_steps=100,
        target_sync_every=10,
    )
    cfg.update(over)
    return FactoredDQNAgent(6, MultiDiscrete(list(nvec)), config=DQNConfig(**cfg), rng=0)


def feed(agent, n, obs_dim=6):
    rng = np.random.default_rng(0)
    obs = rng.normal(size=obs_dim)
    for _ in range(n):
        action = agent.select_action(obs, explore=True)
        next_obs = rng.normal(size=obs_dim)
        agent.store(obs, action, -1.0, next_obs, False)
        obs = next_obs


class TestScaling:
    def test_outputs_linear_in_zones(self):
        agent = make_agent(nvec=(4, 4, 4, 4))
        assert agent.num_q_outputs() == 16  # 4 zones x 4 levels
        assert agent.action_space.n_joint == 256  # what joint would need

    def test_one_network_per_zone(self):
        agent = make_agent(nvec=(4, 4, 4))
        assert len(agent.online) == 3
        assert len(agent.target) == 3

    def test_heterogeneous_levels(self):
        agent = make_agent(nvec=(2, 5))
        assert agent.online[0].out_dim == 2
        assert agent.online[1].out_dim == 5


class TestActions:
    def test_action_shape_and_validity(self):
        agent = make_agent()
        a = agent.select_action(np.zeros(6), explore=False)
        assert a.shape == (3,)
        assert agent.action_space.contains(a)

    def test_greedy_matches_per_zone_argmax(self):
        agent = make_agent()
        obs = np.ones(6)
        expected = [int(np.argmax(q)) for q in agent.q_values(obs)]
        assert np.array_equal(agent.select_action(obs, explore=False), expected)

    def test_exploration_varies_zones_independently(self):
        agent = make_agent(epsilon_start=1.0, epsilon_end=1.0)
        seen = set()
        for _ in range(50):
            seen.add(tuple(agent.select_action(np.zeros(6), explore=True)))
        assert len(seen) > 5


class TestLearning:
    def test_learn_updates_all_heads(self):
        agent = make_agent()
        before = [net.parameters()[0].value.copy() for net in agent.online]
        feed(agent, 30)
        for _ in range(10):
            agent.learn()
        for b, net in zip(before, agent.online):
            assert not np.allclose(b, net.parameters()[0].value)

    def test_heads_share_one_clean_grad_scratch(self):
        agent = make_agent(nvec=(4, 2, 3))
        feed(agent, 20)
        assert agent._passes is None  # built at the first learn step
        agent.learn()
        base = agent._grad_scratch[0].base
        for z, scratch in enumerate(agent._grad_scratch):
            assert scratch.shape == (8, agent.levels_per_zone[z])
            assert scratch.flags.c_contiguous and scratch.base is base
        assert not base.any()

    def test_loss_is_mean_over_zones(self):
        agent = make_agent()
        feed(agent, 20)
        loss = agent.learn()
        assert loss is not None and loss >= 0.0

    def test_respects_learn_start(self):
        agent = make_agent(learn_start=100)
        feed(agent, 20)
        assert agent.learn() is None

    def test_target_sync(self):
        agent = make_agent(target_sync_every=3)
        feed(agent, 30)
        for _ in range(3):
            agent.learn()
        x = np.ones((1, 6))
        for online, target in zip(agent.online, agent.target):
            assert np.allclose(online.forward(x), target.forward(x))

    def test_learns_decomposable_task(self):
        """Each zone has an independently optimal level; factored learning
        must find all of them (this is the case the heuristic is exact for)."""
        agent = make_agent(
            nvec=(3, 3),
            epsilon_decay_steps=300,
            learning_rate=5e-3,
            gamma=0.0,
        )
        rng = np.random.default_rng(1)
        best = np.array([2, 1])
        obs = np.zeros(6)
        for _ in range(800):
            action = agent.select_action(obs, explore=True)
            reward = -float(np.sum(np.abs(action - best)))
            agent.store(obs, action, reward, obs, False)
            agent.learn()
        greedy = agent.select_action(obs, explore=False)
        assert np.array_equal(greedy, best)


class TestBatchedIngest:
    """store_batch must leave the buffer a row-by-row store loop leaves."""

    def _rows(self, n, zones=3, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(n, 6)),
            rng.integers(0, 4, size=(n, zones)),
            rng.normal(size=n),
            rng.normal(size=(n, 6)),
            rng.random(n) < 0.1,
        )

    def _assert_same_buffer(self, batched, sequential):
        bb, sb = batched.buffer, sequential.buffer
        assert batched.total_steps == sequential.total_steps
        assert bb._cursor == sb._cursor and len(bb) == len(sb)
        for attr in ("_obs", "_actions", "_rewards", "_next_obs", "_dones"):
            assert getattr(bb, attr).tobytes() == getattr(sb, attr).tobytes(), attr

    def test_store_batch_routes_reward_per_zone(self):
        rows = self._rows(12)
        per_zone = np.random.default_rng(1).normal(size=(12, 3))
        batched, sequential = make_agent(), make_agent()
        assert batched.store_batch(*rows, infos={"reward_per_zone": per_zone}) == 12
        for i in range(12):
            sequential.store(
                rows[0][i], rows[1][i], float(rows[2][i]), rows[3][i],
                bool(rows[4][i]), info={"reward_per_zone": per_zone[i]},
            )
        self._assert_same_buffer(batched, sequential)
        assert np.array_equal(batched.buffer._rewards[:12], per_zone)

    def test_store_batch_shared_reward_fallback(self):
        rows = self._rows(12)
        batched, sequential = make_agent(), make_agent()
        batched.store_batch(*rows)
        for i in range(12):
            sequential.store(
                rows[0][i], rows[1][i], float(rows[2][i]), rows[3][i],
                bool(rows[4][i]),
            )
        self._assert_same_buffer(batched, sequential)
        # Every head sees the global reward.
        assert np.array_equal(
            batched.buffer._rewards[:12], np.repeat(rows[2][:, None], 3, axis=1)
        )

    def test_store_batch_refuses_wrong_shape_reward_per_zone(self):
        agent = make_agent()
        with pytest.raises(ValueError, match=r"reward_per_zone must have shape \(12, 3\)"):
            agent.store_batch(
                *self._rows(12), infos={"reward_per_zone": np.zeros((12, 2))}
            )
        assert agent.total_steps == 0 and len(agent.buffer) == 0
