"""Tests for the joint-action DQN agent."""

import numpy as np
import pytest

from repro.core import DQNAgent, DQNConfig
from repro.env.spaces import MultiDiscrete


def make_agent(**over):
    cfg = dict(
        hidden=(16,),
        batch_size=8,
        learn_start=8,
        buffer_capacity=256,
        epsilon_decay_steps=100,
        target_sync_every=10,
    )
    cfg.update(over)
    space = MultiDiscrete([4])
    return DQNAgent(5, space, config=DQNConfig(**cfg), rng=0)


def feed_transitions(agent, n, rng=None):
    rng = np.random.default_rng(0 if rng is None else rng)
    obs = rng.normal(size=5)
    for _ in range(n):
        action = agent.select_action(obs, explore=True)
        next_obs = rng.normal(size=5)
        reward = -float(np.sum(next_obs**2))
        agent.store(obs, action, reward, next_obs, False)
        obs = next_obs


class TestConfig:
    def test_defaults_valid(self):
        DQNConfig()

    def test_rejects_learn_start_below_batch(self):
        with pytest.raises(ValueError, match="learn_start"):
            DQNConfig(batch_size=64, learn_start=32)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            DQNConfig(gamma=1.5)

    def test_rejects_empty_hidden(self):
        with pytest.raises(ValueError, match="hidden"):
            DQNConfig(hidden=())


class TestActionSelection:
    def test_greedy_matches_argmax(self):
        agent = make_agent()
        obs = np.ones(5)
        q = agent.q_values(obs)
        action = agent.select_action(obs, explore=False)
        assert agent.action_space.flatten(action) == int(np.argmax(q))

    def test_action_in_space(self):
        agent = make_agent()
        for _ in range(20):
            a = agent.select_action(np.zeros(5), explore=True)
            assert agent.action_space.contains(a)

    def test_epsilon_decays_with_steps(self):
        agent = make_agent()
        e0 = agent.epsilon
        feed_transitions(agent, 50)
        assert agent.epsilon < e0

    def test_exploration_randomizes(self):
        agent = make_agent(epsilon_start=1.0, epsilon_end=1.0)
        actions = {
            agent.action_space.flatten(agent.select_action(np.zeros(5), explore=True))
            for _ in range(60)
        }
        assert len(actions) > 1

    def test_greedy_is_deterministic(self):
        agent = make_agent()
        obs = np.ones(5)
        a = agent.select_action(obs, explore=False)
        b = agent.select_action(obs, explore=False)
        assert np.array_equal(a, b)


class TestLearning:
    def test_no_learn_before_learn_start(self):
        agent = make_agent(learn_start=50, batch_size=8)
        feed_transitions(agent, 10)
        assert agent.learn() is None

    def test_learn_returns_loss(self):
        agent = make_agent()
        feed_transitions(agent, 20)
        loss = agent.learn()
        assert loss is not None and loss >= 0.0

    def test_learning_changes_weights(self):
        agent = make_agent()
        before = agent.online.parameters()[0].value.copy()
        feed_transitions(agent, 30)
        for _ in range(10):
            agent.learn()
        after = agent.online.parameters()[0].value
        assert not np.allclose(before, after)

    def test_target_sync_period(self):
        agent = make_agent(target_sync_every=5)
        feed_transitions(agent, 30)
        for _ in range(4):
            agent.learn()
        x = np.ones((1, 5))
        assert not np.allclose(agent.online.forward(x), agent.target.forward(x))
        agent.learn()  # 5th update triggers sync
        assert np.allclose(agent.online.forward(x), agent.target.forward(x))

    def test_train_every_skips(self):
        agent = make_agent(train_every=4)
        feed_transitions(agent, 17)
        # total_steps = 17; 17 % 4 != 0 -> skip
        assert agent.learn() is None

    def test_no_target_network_variant(self):
        agent = make_agent(use_target_network=False)
        feed_transitions(agent, 30)
        assert agent.learn() is not None

    @pytest.mark.parametrize(
        "over, rows",
        [({}, 16), ({"double_dqn": False}, 8), ({"use_target_network": False}, 16)],
    )
    def test_training_pass_built_at_first_learn_step(self, over, rows):
        """Construction allocates no pass; double DQN and the no-target
        variant forward [obs; next_obs] stacked through one pass."""
        agent = make_agent(**over)
        assert agent._online_pass is None
        feed_transitions(agent, 30)
        agent.learn()
        assert (agent._online_pass.rows, agent._online_pass.grad_rows) == (rows, 8)
        assert (agent._target_pass is None) == ("use_target_network" in over)

    def test_double_dqn_variant_differs_from_vanilla(self):
        # Both must run; targets differ in general.
        a = make_agent(double_dqn=True)
        b = make_agent(double_dqn=False)
        feed_transitions(a, 30)
        feed_transitions(b, 30)
        assert a.learn() is not None
        assert b.learn() is not None


def huber(d):
    return 0.5 * d * d if abs(d) <= 1.0 else abs(d) - 0.5


class TestTDTargets:
    """The learn step's bootstrapped target, read back through its loss.

    A one-transition buffer makes the sampled batch known, so the
    returned loss is the Huber loss of ``Q(s, a) - target``.
    """

    def one_step_loss(self, *, gamma, reward, done):
        agent = make_agent(gamma=gamma, batch_size=1, learn_start=1, buffer_capacity=1)
        obs = np.zeros(5)
        q_sa = float(agent.q_values(obs)[0])
        agent.store(obs, np.array([0]), reward, np.ones(5), done)
        return agent.learn(), q_sa

    def test_terminal_excludes_bootstrap(self):
        loss, q_sa = self.one_step_loss(gamma=0.9, reward=1.0, done=True)
        assert loss == pytest.approx(huber(q_sa - 1.0))
        loss, q_sa = self.one_step_loss(gamma=0.9, reward=1.0, done=False)
        assert loss != pytest.approx(huber(q_sa - 1.0))

    def test_gamma_zero_is_reward(self):
        loss, q_sa = self.one_step_loss(gamma=0.0, reward=3.0, done=False)
        assert loss == pytest.approx(huber(q_sa - 3.0))


class TestGridworldConvergence:
    def test_learns_two_state_mdp(self):
        """DQN must solve a trivial 2-action bandit-style MDP.

        Observation distinguishes two states; action 1 always pays +1,
        action 0 pays 0.  After training, greedy policy must pick 1.
        """
        space = MultiDiscrete([2])
        agent = DQNAgent(
            2,
            space,
            config=DQNConfig(
                hidden=(16,),
                batch_size=16,
                learn_start=16,
                epsilon_decay_steps=200,
                learning_rate=5e-3,
                gamma=0.5,
                target_sync_every=20,
            ),
            rng=0,
        )
        rng = np.random.default_rng(0)
        for _ in range(600):
            state = rng.integers(2)
            obs = np.eye(2)[state]
            action = agent.select_action(obs, explore=True)
            reward = 1.0 if action[0] == 1 else 0.0
            next_state = rng.integers(2)
            agent.store(obs, action, reward, np.eye(2)[next_state], False)
            agent.learn()
        for state in range(2):
            a = agent.select_action(np.eye(2)[state], explore=False)
            assert a[0] == 1


class TestBatchedIngest:
    """store_batch + learn_batch: the VectorTrainer fast-path protocol."""

    def _rows(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(n, 5)),
            rng.integers(0, 4, size=(n, 1)),
            rng.normal(size=n),
            rng.normal(size=(n, 5)),
            rng.random(n) < 0.1,
        )

    def test_store_batch_matches_sequential_stores(self):
        rows = self._rows(12)
        batched, sequential = make_agent(), make_agent()
        stored = batched.store_batch(*rows)
        for i in range(12):
            sequential.store(rows[0][i], rows[1][i], float(rows[2][i]),
                             rows[3][i], bool(rows[4][i]))
        assert stored == 12
        assert batched.total_steps == sequential.total_steps == 12
        assert np.array_equal(batched.buffer._obs, sequential.buffer._obs)
        assert np.array_equal(batched.buffer._actions, sequential.buffer._actions)
        assert batched.buffer._cursor == sequential.buffer._cursor

    def test_learn_batch_matches_per_row_cadence(self):
        # train_every=3: after a batch of n steps, exactly the steps
        # landing on multiples of 3 past learn_start owe an update.
        agent = make_agent(train_every=3, learn_start=8)
        agent.store_batch(*self._rows(8))
        losses = agent.learn_batch(8)
        # steps 1..8, eligible past learn_start(8): step 8 is not a
        # multiple of 3 -> no updates yet... except 8 < learn_start is
        # false at 8; 8 % 3 != 0 -> none.
        assert losses == []
        agent.store_batch(*self._rows(6, seed=1))
        losses = agent.learn_batch(6)
        # steps 9..14 -> multiples of 3 are 9 and 12.
        assert len(losses) == 2
        assert agent.total_updates == 2

    def test_learn_batch_respects_learn_start(self):
        agent = make_agent(learn_start=10)
        agent.store_batch(*self._rows(9))
        assert agent.learn_batch(9) == []
        agent.store_batch(*self._rows(4, seed=2))
        # steps 10..13 are all past learn_start with train_every=1.
        assert len(agent.learn_batch(4)) == 4

    def test_learn_batch_prioritized_updates_priorities(self):
        agent = make_agent(prioritized_replay=True, learn_start=8)
        agent.store_batch(*self._rows(16))
        losses = agent.learn_batch(16)
        assert len(losses) == 9  # steps 8..16
        tree = agent.buffer._tree
        assert tree is not None
        # Sampled slots were re-prioritized away from the initial max.
        assert len({round(agent.buffer.priority_of(i), 9) for i in range(16)}) > 1

    def test_per_method_scan_pins_legacy_buffer(self):
        agent = make_agent(prioritized_replay=True, per_method="scan")
        assert agent.buffer._tree is None
        assert agent.buffer.method == "scan"

    def test_bad_per_method_rejected(self):
        with pytest.raises(ValueError, match="per_method"):
            make_agent(per_method="hash")

    def test_legacy_checkpoint_without_per_method_restores_scan(self):
        # Pre-sum-tree checkpoints have no per_method key; their RNG
        # history came from the scan sampler, so restore must pin it.
        agent = make_agent(prioritized_replay=True, per_method="scan")
        feed_transitions(agent, 20)
        state = agent.state_dict()
        assert state["config"].pop("per_method") == "scan"
        twin = DQNAgent.from_state_dict(state)
        assert twin.buffer.method == "scan"
        assert twin.buffer._tree is None
