"""Integration tests: components fold real counts/spans into telemetry.

Each test installs an enabled Telemetry *before* constructing the
component under test (components capture their handles at construction),
and restores the null backend afterwards.  The determinism tests assert
the telemetry contract that matters most: instrumented runs produce
bit-identical training results.
"""

import numpy as np
import pytest

from repro.core import DQNAgent, DQNConfig, Trainer, TrainerConfig
from repro.faults import FaultInjector, ObsLayout, SensorNoise, fault_stream
from repro.obs import Telemetry, set_telemetry
from repro.serve import MicroBatcher, MicroBatcherConfig, PolicyRegistry


@pytest.fixture()
def telemetry():
    """An enabled backend installed for the test body."""
    tel = Telemetry()
    previous = set_telemetry(tel)
    yield tel
    set_telemetry(previous)


def _value(tel, name, **labels):
    fam = tel.registry.get(name)
    if fam is None:
        return 0.0
    return (fam.labels(**labels) if labels else fam).value


def tiny_dqn(env):
    return DQNAgent(
        env.obs_dim,
        env.action_space,
        config=DQNConfig(
            hidden=(16,),
            batch_size=8,
            learn_start=8,
            epsilon_decay_steps=100,
            buffer_capacity=512,
        ),
        rng=0,
    )


class TestTrainerInstrumentation:
    def test_counters_and_spans(self, single_zone_env, telemetry):
        agent = tiny_dqn(single_zone_env)
        trainer = Trainer(
            single_zone_env, agent, config=TrainerConfig(n_episodes=2)
        )
        trainer.train()
        assert _value(telemetry, "train.episodes_total") == 2.0
        assert _value(telemetry, "train.env_steps_total") == 2 * 96
        assert _value(telemetry, "train.learn_steps_total") > 0
        assert 0.0 < _value(telemetry, "train.epsilon") <= 1.0
        episode_spans = [
            e for e in telemetry.tracer.events if e["name"] == "train.episode"
        ]
        assert len(episode_spans) >= 2

    def test_disabled_telemetry_records_nothing(self, single_zone_env):
        tel = Telemetry()  # NOT installed: the trainer sees the null backend
        agent = tiny_dqn(single_zone_env)
        Trainer(
            single_zone_env, agent, config=TrainerConfig(n_episodes=1)
        ).train()
        assert tel.registry.names() == []

    def test_training_is_bit_identical_with_telemetry_on(self, summer_weather):
        from repro.building import single_zone_building
        from repro.env import HVACEnv, HVACEnvConfig

        def returns(enabled):
            # Fresh env per run: both runs start from identical RNG state.
            env = HVACEnv(
                single_zone_building(),
                summer_weather,
                config=HVACEnvConfig(episode_days=1.0),
                rng=0,
            )
            if enabled:
                previous = set_telemetry(Telemetry())
            try:
                agent = tiny_dqn(env)
                log = Trainer(
                    env, agent, config=TrainerConfig(n_episodes=2)
                ).train()
                return list(log.series("episode_return")), agent.state_dict()
            finally:
                if enabled:
                    set_telemetry(previous)

        plain_returns, plain_state = returns(False)
        traced_returns, traced_state = returns(True)
        assert plain_returns == traced_returns
        for key, value in plain_state["online"].items():
            np.testing.assert_array_equal(value, traced_state["online"][key])


class TestBatcherInstrumentation:
    def _batcher(self, policy, **config_kwargs):
        registry = PolicyRegistry()
        registry.publish("p", policy)
        return MicroBatcher(
            registry, config=MicroBatcherConfig(**config_kwargs)
        )

    def test_flush_reasons_and_queue_depth(self, telemetry):
        class Greedy:
            def select_actions(self, obs_batch, *, explore=False):
                return np.zeros((obs_batch.shape[0], 1), dtype=int)

        batcher = self._batcher(Greedy(), max_batch_size=2, deterministic=True)
        obs = np.zeros(4)
        # Two submits hit max_batch; one more drains via flush (barrier).
        for k in range(3):
            batcher.submit("p", obs, client_id=k)
        batcher.flush()
        assert _value(telemetry, "serve.flush_total", reason="max_batch") == 1.0
        assert _value(telemetry, "serve.flush_total", reason="barrier") == 1.0
        # All queues drained: the depth gauge reads zero.
        fam = telemetry.registry.get("serve.queue_depth")
        assert all(child.value == 0.0 for _, child in fam.series())


class TestFaultInjectorInstrumentation:
    LAYOUT = ObsLayout(n_zones=1, horizon=2, n_levels=4)
    ROW = np.array([0])

    def _injector(self):
        return FaultInjector(
            [SensorNoise(temp_std_c=0.1)],
            [self.LAYOUT],
            [fault_stream(0)],
        )

    def test_counts_episodes_and_activations(self, telemetry):
        injector = self._injector()
        injector.on_reset(self.ROW)
        obs = np.full((1, self.LAYOUT.obs_dim), 0.5)
        injector.apply_reset_obs(self.ROW, obs)
        injector.apply_step_obs(self.ROW, obs)
        injector.apply_action(self.ROW, np.array([[1]]))
        assert _value(telemetry, "faults.episodes_total") == 1.0
        assert (
            _value(telemetry, "faults.activations_total", model="sensor_noise")
            == 3.0
        )

    def test_counters_leave_fault_streams_untouched(self):
        # Same seed, telemetry on vs off: identical perturbations.
        def perturbed(enabled):
            if enabled:
                previous = set_telemetry(Telemetry())
            try:
                injector = self._injector()
                injector.on_reset(self.ROW)
                obs = np.full((1, self.LAYOUT.obs_dim), 0.5)
                injector.apply_reset_obs(self.ROW, obs)
                return obs
            finally:
                if enabled:
                    set_telemetry(previous)

        np.testing.assert_array_equal(perturbed(False), perturbed(True))
