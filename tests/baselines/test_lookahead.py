"""Tests for the model-based myopic lookahead reference."""

import copy

import numpy as np
import pytest

from repro.baselines import LookaheadController, RandomController
from repro.env import TimeLimit
from repro.eval import run_episode


class TestLookahead:
    def test_action_valid(self, single_zone_env):
        obs = single_zone_env.reset()
        oracle = LookaheadController(single_zone_env)
        assert single_zone_env.action_space.contains(oracle.select_action(obs))

    def test_one_step_reward_matches_env(self, single_zone_env):
        """Every level's predicted reward is exactly what env.step returns."""
        env = single_zone_env
        env.reset()
        oracle = LookaheadController(env)
        for _ in range(3):  # a few states along one trajectory
            predicted = oracle.candidate_rewards()
            assert predicted.shape == (4,)
            for level in range(4):
                _, actual, _, _ = copy.deepcopy(env).step([level])
                assert predicted[level] == actual, f"level {level}"
            env.step([2])

    def test_one_step_reward_matches_env_four_zone(self, four_zone_env):
        env = four_zone_env
        env.reset()
        for _ in range(20):  # move off the reset state
            env.step(env.action_space.sample(np.random.default_rng(0)))
        oracle = LookaheadController(env)
        predicted = oracle.candidate_rewards()
        assert predicted.shape == (env.action_space.n_joint,)
        sample = np.random.default_rng(5).choice(len(predicted), 24, replace=False)
        for joint in [0, len(predicted) - 1, *sample]:
            levels = env.action_space.unflatten(joint)
            _, actual, _, _ = copy.deepcopy(env).step(levels)
            assert predicted[joint] == actual, f"joint action {levels}"

    def test_picks_the_best_candidate(self, four_zone_env):
        four_zone_env.reset()
        oracle = LookaheadController(four_zone_env)
        rewards = oracle.candidate_rewards()
        action = oracle.select_action(None)
        assert rewards[four_zone_env.action_space.flatten(action)] == rewards.max()

    def test_beats_random_on_immediate_reward(self, single_zone_env):
        oracle = LookaheadController(single_zone_env)
        oracle_metrics, _ = run_episode(single_zone_env, oracle)
        rand = RandomController(single_zone_env.action_space, rng=0)
        rand_metrics, _ = run_episode(single_zone_env, rand)
        assert oracle_metrics.episode_return > rand_metrics.episode_return

    def test_works_through_wrappers(self, single_zone_env):
        wrapped = TimeLimit(single_zone_env, max_steps=10)
        oracle = LookaheadController(wrapped)
        metrics, _ = run_episode(wrapped, oracle)
        assert metrics.steps == 10

    def test_rejects_huge_action_spaces(self, four_zone_env):
        with pytest.raises(ValueError, match="exceeds limit"):
            LookaheadController(four_zone_env, max_joint_actions=10)

    def test_rejects_non_hvac_env(self):
        class Fake:
            def unwrapped(self):
                return self

        with pytest.raises(TypeError, match="HVACEnv"):
            LookaheadController(Fake())  # type: ignore[arg-type]
