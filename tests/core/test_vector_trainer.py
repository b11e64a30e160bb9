"""Tests for training against the vectorized fleet."""

import numpy as np
import pytest

from repro.building import single_zone_building
from repro.core import DQNAgent, DQNConfig, Trainer, TrainerConfig, VectorTrainer
from repro.env import HVACEnv, HVACEnvConfig
from repro.sim import VectorHVACEnv


def _make_env(weather, seed):
    return HVACEnv(
        single_zone_building(),
        weather,
        config=HVACEnvConfig(episode_days=1.0),
        rng=seed,
    )


def _tiny_agent(env, rng=0):
    return DQNAgent(
        env.obs_dim,
        env.action_space,
        config=DQNConfig(
            hidden=(8,), batch_size=8, learn_start=8, epsilon_decay_steps=200
        ),
        rng=rng,
    )


class TestVectorTrainer:
    def test_collects_transitions_from_fleet(self, summer_weather):
        n = 4
        vec = VectorHVACEnv([_make_env(summer_weather, s) for s in range(n)])
        agent = _tiny_agent(vec.envs[0])
        log = VectorTrainer(
            vec, agent, config=TrainerConfig(n_episodes=n)
        ).train()
        # One fleet pass: n episodes of 96 steps, every transition stored.
        assert agent.total_steps == n * 96
        assert len(log.series("episode_return")) == n
        assert len(log.series("loss")) > 0

    def test_counts_env_episodes_not_fleet_passes(self, summer_weather):
        vec = VectorHVACEnv([_make_env(summer_weather, s) for s in range(3)])
        agent = _tiny_agent(vec.envs[0])
        log = VectorTrainer(
            vec, agent, config=TrainerConfig(n_episodes=5)
        ).train()
        # 3 envs x 2 fleet passes = 6 completions, but logging stops at
        # exactly the configured count (matching the scalar Trainer).
        assert len(log.series("episode_return")) == 5

    def test_rejects_truncating_step_cap(self, summer_weather):
        vec = VectorHVACEnv([_make_env(summer_weather, 0)])
        with pytest.raises(ValueError, match="max_steps_per_episode"):
            VectorTrainer(
                vec,
                _tiny_agent(vec.envs[0]),
                config=TrainerConfig(n_episodes=1, max_steps_per_episode=50),
            )

    def test_refuses_agent_without_batched_protocol(self, summer_weather):
        from repro.baselines import RandomController

        vec = VectorHVACEnv([_make_env(summer_weather, s) for s in range(2)])
        agent = RandomController(vec.envs[0].action_space, rng=0)
        with pytest.raises(
            ValueError, match="RandomController lacks select_actions, "
            "store_batch, learn_batch"
        ):
            VectorTrainer(vec, agent, config=TrainerConfig(n_episodes=2))

    def test_rejects_eval_every(self, summer_weather):
        vec = VectorHVACEnv([_make_env(summer_weather, 0)])
        with pytest.raises(ValueError, match="eval_every"):
            VectorTrainer(
                vec,
                _tiny_agent(vec.envs[0]),
                config=TrainerConfig(n_episodes=2, eval_every=1),
            )

    def test_requires_autoreset(self, summer_weather):
        vec = VectorHVACEnv([_make_env(summer_weather, 0)], autoreset=False)
        with pytest.raises(ValueError, match="autoreset"):
            VectorTrainer(vec, _tiny_agent(vec.envs[0]))

    def test_requires_homogeneous_fleet(self, summer_weather):
        from repro.building import four_zone_office

        hetero = VectorHVACEnv(
            [
                _make_env(summer_weather, 0),
                HVACEnv(
                    four_zone_office(),
                    summer_weather,
                    config=HVACEnvConfig(episode_days=1.0),
                    rng=1,
                ),
            ]
        )
        with pytest.raises(ValueError, match="homogeneous"):
            VectorTrainer(hetero, _tiny_agent(hetero.envs[0]))

    def test_learns_comparably_to_scalar_trainer(self, summer_weather):
        """Fleet-collected training reaches returns in the same range as
        the scalar loop given the same transition budget."""
        n_episodes = 6
        vec = VectorHVACEnv([_make_env(summer_weather, s) for s in range(2)])
        vec_agent = _tiny_agent(vec.envs[0])
        vec_log = VectorTrainer(
            vec, vec_agent, config=TrainerConfig(n_episodes=n_episodes)
        ).train()

        scalar_env = _make_env(summer_weather, 0)
        scalar_agent = _tiny_agent(scalar_env)
        scalar_log = Trainer(
            scalar_env, scalar_agent, config=TrainerConfig(n_episodes=n_episodes)
        ).train()

        vec_returns = vec_log.series("episode_return")
        scalar_returns = scalar_log.series("episode_return")
        assert len(vec_returns) == len(scalar_returns)
        # Both should produce finite, same-order-of-magnitude returns.
        assert np.isfinite(vec_returns).all()
        assert abs(np.mean(vec_returns) - np.mean(scalar_returns)) < 50.0


class TestBatchedIngest:
    """Each fleet pass feeds the agent one store_batch write; it must
    store exactly what a per-row store loop over the same transitions
    stores."""

    def test_dqn_buffer_identical_to_per_row_loop(self, summer_weather):
        n = 3

        def fleet():
            return VectorHVACEnv([_make_env(summer_weather, s) for s in range(n)])

        def agent_for(vec):
            # learn_start beyond the run: no update perturbs the policy.
            return DQNAgent(
                vec.envs[0].obs_dim,
                vec.envs[0].action_space,
                config=DQNConfig(hidden=(8,), batch_size=8, learn_start=10_000),
                rng=0,
            )

        vec = fleet()
        agent = agent_for(vec)
        # Four episodes on three envs: two fleet passes, so the buffer
        # spans an autoreset boundary.
        VectorTrainer(vec, agent, config=TrainerConfig(n_episodes=4)).train()
        buf = agent.buffer
        assert len(buf) == 2 * n * 96

        # Replay the stored actions on a fresh fleet and store every row
        # one at a time, bootstrapping done rows from the terminal obs.
        replay = fleet()
        ref = agent_for(replay)
        space = replay.envs[0].action_space
        obs = replay.reset()
        for t in range(len(buf) // n):
            actions = space.unflatten_batch(buf._actions[n * t : n * t + n, 0])
            next_obs, rewards, dones, info = replay.step(actions)
            for k in range(n):
                boot = info.terminal_obs[k] if dones[k] else next_obs[k]
                ref.store(obs[k], actions[k], rewards[k], boot, bool(dones[k]))
            obs = next_obs
        rb = ref.buffer
        assert agent.total_steps == ref.total_steps
        assert buf._cursor == rb._cursor and len(buf) == len(rb)
        for attr in ("_obs", "_actions", "_rewards", "_next_obs", "_dones"):
            assert np.array_equal(getattr(buf, attr), getattr(rb, attr)), attr
        # Each env ended one episode per pass, the first mid-buffer.
        assert buf._dones.sum() == 2 * n and buf._dones[: n * 96].sum() == n

    def test_learning_run_reaches_same_episode_count(self, summer_weather):
        # Whatever the fleet size, a learning run logs exactly the
        # configured episodes and stores every transition of the passes
        # it took to complete them.
        for n in (1, 2, 4):
            vec = VectorHVACEnv([_make_env(summer_weather, s) for s in range(n)])
            agent = _tiny_agent(vec.envs[0])
            trainer = VectorTrainer(vec, agent, config=TrainerConfig(n_episodes=4))
            log = trainer.train()
            assert len(log.series("episode_return")) == 4, n
            assert trainer.episodes_done == 4
            assert agent.total_steps == -(-4 // n) * n * 96
            assert len(log.series("loss")) > 0

    def test_profiler_covers_vector_phases(self, summer_weather):
        from repro.utils.profiling import PhaseTimer

        vec = VectorHVACEnv([_make_env(summer_weather, s) for s in range(2)])
        timer = PhaseTimer()
        VectorTrainer(
            vec,
            _tiny_agent(vec.envs[0]),
            config=TrainerConfig(n_episodes=2),
            profiler=timer,
        ).train()
        assert set(timer.phases) == {
            "action_select", "env_step", "replay_ingest", "learn",
        }
        # calls are charged per env-step, not per fleet pass.
        assert timer.calls("env_step") == 2 * 96

    def test_factored_agent_routes_reward_per_zone(self, summer_weather):
        from repro.building import four_zone_office
        from repro.core import FactoredDQNAgent

        def fleet():
            return VectorHVACEnv(
                [
                    HVACEnv(
                        four_zone_office(),
                        summer_weather,
                        config=HVACEnvConfig(episode_days=1.0),
                        rng=seed,
                    )
                    for seed in range(2)
                ]
            )

        vec = fleet()
        # learn_start beyond the run: the buffer holds exactly what the
        # fleet emitted, row k of pass t at slot t * n + k.
        agent = FactoredDQNAgent(
            vec.envs[0].obs_dim,
            vec.envs[0].action_space,
            config=DQNConfig(hidden=(8,), batch_size=8, learn_start=10_000),
            rng=0,
        )
        VectorTrainer(vec, agent, config=TrainerConfig(n_episodes=2)).train()
        buf = agent.buffer
        assert buf._rewards.shape[1] == 4
        # Replay the stored actions on a fresh fleet: every stored reward
        # row is the env's per-zone decomposition, not the shared fallback.
        replay = fleet()
        replay.reset()
        for t in range(len(buf) // 2):
            rows = slice(2 * t, 2 * t + 2)
            _, _, _, info = replay.step(buf._actions[rows])
            assert np.array_equal(buf._rewards[rows], info.reward_per_zone[:, :4])


    def test_batched_ingest_true_requires_protocol(self, summer_weather):
        # An agent with only part of the batched protocol is refused, and
        # the error names just the hooks it lacks.
        class SelectOnly:
            def select_actions(self, obs, explore=True):
                return np.zeros(len(obs), dtype=int)

        vec = VectorHVACEnv([_make_env(summer_weather, 0)])
        with pytest.raises(
            ValueError, match="SelectOnly lacks store_batch, learn_batch$"
        ):
            VectorTrainer(vec, SelectOnly(), config=TrainerConfig(n_episodes=1))

    def test_checkpoint_records_and_restores_ingest_mode(self, summer_weather):
        def build(rng):
            vec = VectorHVACEnv([_make_env(summer_weather, s) for s in range(2)])
            return VectorTrainer(
                vec, _tiny_agent(vec.envs[0], rng=rng),
                config=TrainerConfig(n_episodes=4),
            )

        trainer = build(0)
        trainer.train(until=2)
        state = trainer.state_dict()
        assert state["batched_ingest"] is True

        resumed = build(1)
        resumed.load_state_dict(state)
        assert resumed.episodes_done == 2
        assert resumed.state_dict()["batched_ingest"] is True
        # The restored run continues exactly as the original does.
        trainer.train()
        resumed.train()
        assert resumed.episodes_done == 4
        for key in ("episode_return", "loss"):
            assert np.array_equal(
                trainer.logger.series(key), resumed.logger.series(key)
            ), key


class TestIngestFormatMarker:
    """Checkpoints carry ``batched_ingest: True``; one without it came
    from the per-row store/learn loop and cannot resume bit-exactly."""

    def _trained_state(self, weather):
        vec = VectorHVACEnv([_make_env(weather, s) for s in range(2)])
        trainer = VectorTrainer(
            vec, _tiny_agent(vec.envs[0]), config=TrainerConfig(n_episodes=2)
        )
        trainer.train()
        state = trainer.state_dict()
        assert state["batched_ingest"] is True
        return trainer, state

    def _assert_refused_untouched(self, weather, state):
        vec = VectorHVACEnv([_make_env(weather, s) for s in range(2)])
        agent = _tiny_agent(vec.envs[0], rng=1)
        fresh = VectorTrainer(vec, agent, config=TrainerConfig(n_episodes=2))
        weights = [p.value.copy() for p in agent.online.parameters()]
        with pytest.raises(ValueError, match="per-row ingest loop"):
            fresh.load_state_dict(state)
        # Refused before any state changed.
        assert fresh.episodes_done == 0 and fresh._fleet_steps == 0
        assert fresh._obs is None and agent.total_steps == 0
        for before, p in zip(weights, agent.online.parameters()):
            assert np.array_equal(before, p.value)

    def _assert_agent_still_serves(self, trainer, state):
        from repro.serve.registry import agent_from_checkpoint

        served = agent_from_checkpoint(state)
        for want, got in zip(
            trainer.agent.online.parameters(), served.online.parameters()
        ):
            assert np.array_equal(want.value, got.value)

    def test_refuses_false_marker(self, summer_weather):
        trainer, state = self._trained_state(summer_weather)
        state["batched_ingest"] = False
        self._assert_refused_untouched(summer_weather, state)
        self._assert_agent_still_serves(trainer, state)

    def test_refuses_missing_marker(self, summer_weather):
        trainer, state = self._trained_state(summer_weather)
        del state["batched_ingest"]
        self._assert_refused_untouched(summer_weather, state)
        self._assert_agent_still_serves(trainer, state)
