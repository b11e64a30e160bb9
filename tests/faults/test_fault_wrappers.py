"""Fault wrapper contracts: scalar/vector bit parity, clean pass-through,
mask-awareness, the faulted sensing surface, and action validation.

A scalar ``FaultyHVACEnv`` is a one-row faulted fleet, so the
scalar-vs-vector parity tests check that a faulted row does not depend
on its fleet-mates: each row of a faulted fleet must match the same env
faulted alone."""

import numpy as np
import pytest

from repro.baselines import ThermostatController
from repro.faults import (
    FaultyHVACEnv,
    FaultyVectorHVACEnv,
    get_fault_profile,
    list_fault_profiles,
)
from repro.sim import VectorHVACEnv, build_fleet, get_scenario

_SCENARIO = get_scenario("baseline-tou").with_overrides(
    name="fault-test", weather_days=2.0
)
_FOUR_ZONE = get_scenario("four-zone-office").with_overrides(
    name="fault-test-4z", weather_days=2.0
)


def _faulted_pair(scenario, profile, seeds, *, autoreset=False):
    scalars = [
        FaultyHVACEnv(scenario.build(s), profile, seed=s) for s in seeds
    ]
    vec = FaultyVectorHVACEnv(
        VectorHVACEnv(build_fleet(scenario, seeds), autoreset=autoreset),
        profile,
        seeds=seeds,
    )
    return scalars, vec


# Same guarantee as the clean vector env: RNG consumption is exact, the
# batched arithmetic matches to floating-point round-off.
ATOL = 1e-10


def _assert_parity(scalars, vec, n_steps, action_rng):
    obs_v = vec.reset()
    obs_s = [env.reset() for env in scalars]
    for k, row in enumerate(obs_s):
        np.testing.assert_allclose(obs_v[k, : row.size], row, atol=ATOL)
    for t in range(n_steps):
        actions = [env.action_space.sample(action_rng) for env in scalars]
        obs_v, rew_v, done_v, info = vec.step(actions)
        for k, env in enumerate(scalars):
            obs_k, rew_k, done_k, _ = env.step(actions[k])
            np.testing.assert_allclose(
                obs_v[k, : obs_k.size], obs_k, atol=ATOL,
                err_msg=f"step {t} env {k}",
            )
            assert rew_v[k] == pytest.approx(rew_k, abs=ATOL)
            assert bool(done_v[k]) == done_k


class TestScalarVectorFaultParity:
    @pytest.mark.parametrize(
        "profile", [n for n in list_fault_profiles() if n != "none"]
    )
    def test_every_preset_is_bit_identical(self, profile, sweep_seed):
        seeds = [sweep_seed, sweep_seed + 1]
        scalars, vec = _faulted_pair(_SCENARIO, profile, seeds)
        _assert_parity(scalars, vec, 48, np.random.default_rng(3))

    def test_multizone_compound_parity(self, sweep_seed):
        seeds = [sweep_seed, sweep_seed + 3]
        scalars, vec = _faulted_pair(_FOUR_ZONE, "compound-degraded", seeds)
        _assert_parity(scalars, vec, 48, np.random.default_rng(9))

    def test_autoreset_boundary_parity(self):
        """Across an autoreset boundary the vector wrapper must fault the
        terminal observation and the fresh reset observation exactly as
        the scalar wrapper (step → reset) sequence does."""
        scenario = _SCENARIO.with_overrides(name="fault-short", episode_days=0.25)
        scalar = FaultyHVACEnv(scenario.build(0), "noisy-sensors", seed=0)
        vec = FaultyVectorHVACEnv(
            VectorHVACEnv(build_fleet(scenario, [0]), autoreset=True),
            "noisy-sensors",
            seeds=[0],
        )
        obs_v = vec.reset()
        obs_s = scalar.reset()
        np.testing.assert_array_equal(obs_v[0], obs_s)
        action = np.ones((1, 1), dtype=int)
        for t in range(60):
            obs_v, _, done_v, info = vec.step(action)
            obs_s, _, done_s, _ = scalar.step(action[0])
            if done_s:
                np.testing.assert_array_equal(info.terminal_obs[0], obs_s)
                obs_s = scalar.reset()
            np.testing.assert_array_equal(obs_v[0], obs_s, err_msg=f"step {t}")

    def test_frozen_envs_stop_consuming_fault_randomness(self):
        """With autoreset=False a finished env freezes; its fault stream
        must freeze with it (a scalar env is not stepped after done)."""
        short = _SCENARIO.with_overrides(name="fault-frozen", episode_days=0.25)
        long = _SCENARIO.with_overrides(name="fault-long", episode_days=1.0)
        vec = FaultyVectorHVACEnv(
            VectorHVACEnv(
                [short.build(0), long.build(1)], autoreset=False
            ),
            "noisy-sensors",
            seeds=[0, 1],
        )
        vec.reset()
        action = np.ones((2, 1), dtype=int)
        for _ in range(30):  # short env finishes at step 24
            vec.step(action)
        state_a = vec.injector.state_dict()
        frozen_row_before = vec._last_obs[0].copy()
        obs, _, _, _ = vec.step(action)
        state_b = vec.injector.state_dict()
        assert state_a["rngs"][0] == state_b["rngs"][0]  # frozen: untouched
        assert state_a["rngs"][1] != state_b["rngs"][1]  # active: advanced
        assert state_a["steps"][0] == state_b["steps"][0]
        # The frozen row keeps its last *faulted* observation — the inner
        # fleet must not leak a clean rebuild of it (a stopped scalar env's
        # last obs stays faulted).
        np.testing.assert_array_equal(obs[0], frozen_row_before)

    def test_frozen_envs_keep_faulted_sensed_temps(self):
        """A controller bound to a finished fleet member must keep seeing
        the faulted sensor reading, not a clean rebuild."""
        short = _SCENARIO.with_overrides(name="fault-frozen-2", episode_days=0.25)
        long = _SCENARIO.with_overrides(name="fault-long-2", episode_days=1.0)
        vec = FaultyVectorHVACEnv(
            VectorHVACEnv([short.build(0), long.build(1)], autoreset=False),
            "biased-thermistor",
            seeds=[0, 1],
        )
        vec.reset()
        action = np.ones((2, 1), dtype=int)
        for _ in range(30):  # run the short env past its episode end
            vec.step(action)
        sensed_at_freeze = vec.env_view(0).zone_temps_c.copy()
        vec.step(action)
        np.testing.assert_array_equal(vec.env_view(0).zone_temps_c, sensed_at_freeze)
        # And the bias really is present in that frozen reading.
        true_temps = vec.vec_env.env_view(0).zone_temps_c
        np.testing.assert_allclose(sensed_at_freeze, true_temps + 1.5, atol=1e-9)


class TestCleanPassThrough:
    def test_none_profile_builds_no_injector(self):
        env = FaultyHVACEnv(_SCENARIO.build(0), "none", seed=0)
        assert env.injector is None

    def test_scalar_trajectory_bit_identical(self):
        clean = _SCENARIO.build(0)
        wrapped = FaultyHVACEnv(_SCENARIO.build(0), "none", seed=0)
        o1, o2 = clean.reset(), wrapped.reset()
        np.testing.assert_array_equal(o1, o2)
        rng = np.random.default_rng(4)
        for _ in range(48):
            a = clean.action_space.sample(rng)
            r1 = clean.step(a)
            r2 = wrapped.step(a)
            np.testing.assert_array_equal(r1[0], r2[0])
            assert r1[1] == r2[1] and r1[2] == r2[2]

    def test_vector_trajectory_bit_identical(self):
        seeds = [0, 1]
        clean = VectorHVACEnv(build_fleet(_SCENARIO, seeds), autoreset=False)
        wrapped = FaultyVectorHVACEnv(
            VectorHVACEnv(build_fleet(_SCENARIO, seeds), autoreset=False),
            "none",
            seeds=seeds,
        )
        np.testing.assert_array_equal(clean.reset(), wrapped.reset())
        action = np.ones((2, 1), dtype=int)
        for _ in range(48):
            o1, r1, d1, _ = clean.step(action)
            o2, r2, d2, _ = wrapped.step(action)
            np.testing.assert_array_equal(o1, o2)
            np.testing.assert_array_equal(r1, r2)
            np.testing.assert_array_equal(d1, d2)


class TestSensingSurface:
    def test_wrapper_is_its_own_unwrapped(self):
        env = FaultyHVACEnv(_SCENARIO.build(0), "biased-thermistor", seed=0)
        assert env.unwrapped() is env

    def test_sensed_temps_carry_the_bias(self):
        env = FaultyHVACEnv(_SCENARIO.build(0), "biased-thermistor", seed=0)
        env.reset()
        np.testing.assert_allclose(
            env.zone_temps_c, env.true_zone_temps_c + 1.5, atol=1e-9
        )

    def test_thermostat_reacts_to_faulted_sensor(self):
        """A thermistor pinned 10°C hot must drive the thermostat to full
        cooling even in a cool building — controllers consume the faulted
        sensing surface, not ground truth."""
        from repro.faults import FaultProfile, SensorNoise

        hot_lie = FaultProfile(
            "hot-lie-test", faults=(SensorNoise(temp_bias_c=10.0),)
        )
        env = FaultyHVACEnv(_SCENARIO.build(0), hot_lie, seed=0)
        thermostat = ThermostatController(env)
        env.reset()
        action = thermostat.select_action(None)
        assert action[0] == env.action_space.nvec[0] - 1

    def test_vector_env_view_matches_scalar_sensing(self):
        seeds = [0, 1]
        scalars, vec = _faulted_pair(_SCENARIO, "biased-thermistor", seeds)
        vec.reset()
        for env in scalars:
            env.reset()
        for k, env in enumerate(scalars):
            np.testing.assert_array_equal(
                vec.env_view(k).zone_temps_c, env.zone_temps_c
            )

    def test_info_reports_commanded_and_sensed(self):
        env = FaultyHVACEnv(_SCENARIO.build(0), "stuck-damper", seed=0)
        env.reset()
        _, _, _, info = env.step([2])
        np.testing.assert_array_equal(info["commanded_levels"], [2])
        assert "sensed_temps_c" in info

    def test_caller_mutation_of_returned_obs_cannot_corrupt_sensing(self):
        """The inner fleet returns a copy callers may mutate; the wrapper
        must keep its own faulted snapshot for sensed temps/checkpoints."""
        seeds = [0, 1]
        _, vec = _faulted_pair(_SCENARIO, "biased-thermistor", seeds)
        obs = vec.reset()
        sensed = vec.sensed_zone_temps_c.copy()
        obs[:] = 99.0  # caller trashes the returned batch
        np.testing.assert_array_equal(vec.sensed_zone_temps_c, sensed)
        scalar = FaultyHVACEnv(_SCENARIO.build(0), "biased-thermistor", seed=0)
        row = scalar.reset()
        sensed_scalar = scalar.zone_temps_c.copy()
        row[:] = 99.0
        np.testing.assert_array_equal(scalar.zone_temps_c, sensed_scalar)

    def test_actuator_fault_changes_executed_levels(self):
        env = FaultyHVACEnv(_SCENARIO.build(0), "degraded-capacity", seed=0)
        env.reset()
        _, _, _, info = env.step([3])
        np.testing.assert_array_equal(info["commanded_levels"], [3])
        # The plant executed the degraded level, not the commanded one.
        assert info["levels"][0] < 3


class TestWrapperValidation:
    @pytest.mark.parametrize("profile", ["noisy-sensors", "degraded-capacity"])
    @pytest.mark.parametrize("bad", [[99, 0], [0, -1], [4, 3]], ids=str)
    def test_invalid_levels_raise_like_the_clean_fleet(self, profile, bad):
        """No fault model sees an out-of-range level: the faulted fleet and
        the scalar faulted env reject it with the clean fleet's error."""
        seeds = [0, 1]
        clean = VectorHVACEnv(build_fleet(_SCENARIO, seeds), autoreset=False)
        faulted = FaultyVectorHVACEnv(
            VectorHVACEnv(build_fleet(_SCENARIO, seeds), autoreset=False),
            profile,
            seeds=seeds,
        )
        clean.reset()
        faulted.reset()
        before = faulted.injector.state_dict()
        error = "an action level is not in its env's valid range"
        for actions in (np.array(bad)[:, None], [np.array([a]) for a in bad]):
            with pytest.raises(ValueError, match=error):
                clean.step(actions)
            with pytest.raises(ValueError, match=error):
                faulted.step(actions)
        assert faulted.injector.state_dict() == before
        clean_scalar = _SCENARIO.build(0)
        scalar = FaultyHVACEnv(_SCENARIO.build(0), profile, seed=0)
        clean_scalar.reset()
        scalar.reset()
        level = next(a for a in bad if not 0 <= a < 4)
        for action in ([level], level):
            with pytest.raises(ValueError, match=error):
                clean_scalar.step(action)
            with pytest.raises(ValueError, match=error):
                scalar.step(action)

    def test_scalar_env_raises_once_its_episode_ends(self):
        env = FaultyHVACEnv(
            _SCENARIO.with_overrides(name="fault-end", episode_days=0.25).build(0),
            "noisy-sensors",
            seed=0,
        )
        with pytest.raises(RuntimeError, match="reset"):
            env.step([1])
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step([1])
        before = env.state_dict()
        with pytest.raises(RuntimeError, match="reset"):
            env.step([1])
        assert env.state_dict() == before
    def test_vector_wrapper_needs_one_seed_per_env(self):
        vec = VectorHVACEnv(build_fleet(_SCENARIO, [0, 1]), autoreset=False)
        with pytest.raises(ValueError, match="seed"):
            FaultyVectorHVACEnv(vec, "noisy-sensors", seeds=[0])

    def test_unknown_profile_name_rejected(self):
        with pytest.raises(KeyError, match="unknown fault profile"):
            FaultyHVACEnv(_SCENARIO.build(0), "grue-attack", seed=0)

    def test_profile_object_accepted(self):
        profile = get_fault_profile("noisy-sensors")
        env = FaultyHVACEnv(_SCENARIO.build(0), profile, seed=0)
        assert env.profile is profile
