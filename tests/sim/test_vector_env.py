"""Scalar-vs-vector parity and vector-env semantics.

The load-bearing guarantee: a fleet of N configs under the same seeds
reproduces N independent scalar envs' trajectories byte for byte —
observations, rewards, dones, temperatures, and info diagnostics alike.
A scalar env is a one-row fleet, so these parity tests check that a
row's trajectory does not depend on its fleet-mates: not on their
zone counts, forecast horizons or episode lengths, nor on the padding,
masking and autoresets they cause.
"""

import re

import numpy as np
import pytest

from repro.baselines import ThermostatController
from repro.building import (
    five_zone_perimeter_core,
    four_zone_office,
    single_zone_building,
)
from repro.env import HVACEnv, HVACEnvConfig
from repro.sim import VectorHVACEnv
from repro.sim.scenarios import build_fleet, get_scenario, list_scenarios

SCALAR_INFO = ("cost_usd", "energy_kwh", "violation_deg_hours", "power_w")
ARRAY_INFO = (
    "violation_per_zone_deg",
    "reward_per_zone",
    "temps_c",
    "occupied",
    "levels",
)


def _same(a, b, what):
    """Exact equality, down to the sign of zero."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), f"{what}: {a!r} != {b!r}"


def _make_env(weather, seed, builder=single_zone_building, **cfg):
    cfg.setdefault("episode_days", 1.0)
    return HVACEnv(builder(), weather, config=HVACEnvConfig(**cfg), rng=seed)


# (building, forecast horizon, episode days): every obs layout differs.
MIXED_LAYOUTS = (
    (single_zone_building, 0, 1.0),
    (four_zone_office, 3, 0.5),
    (five_zone_perimeter_core, 5, 1.0),
    (single_zone_building, 5, 0.5),
    (four_zone_office, 0, 1.0),
    (five_zone_perimeter_core, 3, 0.5),
)


def _mixed_layout_envs(weather):
    return [
        _make_env(
            weather,
            seed,
            builder,
            forecast_horizon=horizon,
            episode_days=days,
            randomize_start_day=True,
        )
        for seed, (builder, horizon, days) in enumerate(MIXED_LAYOUTS, start=11)
    ]


def _assert_step_equal(k, env, vec_step, scalar_step):
    """Env ``k``'s row of a fleet step equals its scalar step exactly."""
    obs_v, rew_v, done_v, info = vec_step
    obs_k, rew_k, done_k, info_k = scalar_step
    _same(obs_v[k, : env.obs_dim], obs_k, f"env {k} obs")
    _same(rew_v[k], np.float64(rew_k), f"env {k} reward")
    assert bool(done_v[k]) == done_k
    vec_info = info.per_env(k, env.building.n_zones)
    for field in SCALAR_INFO:
        _same(np.float64(vec_info[field]), np.float64(info_k[field]), field)
    for field in ARRAY_INFO:
        _same(vec_info[field], info_k[field], field)
    assert vec_info["day_of_year"] == info_k["day_of_year"]
    assert vec_info["hour_of_day"] == info_k["hour_of_day"]


def _run_parity(vec, scalars, n_steps, action_rng):
    obs_v = vec.reset()
    obs_s = np.stack([env.reset() for env in scalars])
    _same(obs_v, obs_s, "reset obs")
    for _ in range(n_steps):
        actions = np.stack([env.action_space.sample(action_rng) for env in scalars])
        vec_step = vec.step(actions)
        for k, env in enumerate(scalars):
            _assert_step_equal(k, env, vec_step, env.step(actions[k]))


class TestScalarVectorParity:
    def test_single_zone_full_episode(self, summer_weather, sweep_seed):
        # Swept across base seeds: parity is a determinism contract, not
        # a property of the seeds a test author happened to pick.
        n = 4
        seeds = range(sweep_seed, sweep_seed + n)
        vec = VectorHVACEnv(
            [_make_env(summer_weather, s) for s in seeds], autoreset=False
        )
        scalars = [_make_env(summer_weather, s) for s in seeds]
        _run_parity(vec, scalars, 96, np.random.default_rng(7 + sweep_seed % 97))

    def test_four_zone_full_episode(self, summer_weather, sweep_seed):
        n = 3
        seeds = range(sweep_seed, sweep_seed + n)
        vec = VectorHVACEnv(
            [_make_env(summer_weather, s, four_zone_office) for s in seeds],
            autoreset=False,
        )
        scalars = [_make_env(summer_weather, s, four_zone_office) for s in seeds]
        _run_parity(vec, scalars, 96, np.random.default_rng(11 + sweep_seed % 97))

    def test_parity_without_forecast(self, summer_weather):
        vec = VectorHVACEnv(
            [_make_env(summer_weather, s, forecast_horizon=0) for s in range(2)],
            autoreset=False,
        )
        scalars = [_make_env(summer_weather, s, forecast_horizon=0) for s in range(2)]
        _run_parity(vec, scalars, 30, np.random.default_rng(3))

    def test_parity_with_randomized_start(self, week_weather, sweep_seed):
        n = 3
        seeds = range(sweep_seed, sweep_seed + n)
        vec = VectorHVACEnv(
            [_make_env(week_weather, s, randomize_start_day=True) for s in seeds],
            autoreset=False,
        )
        scalars = [
            _make_env(week_weather, s, randomize_start_day=True) for s in seeds
        ]
        _run_parity(vec, scalars, 40, np.random.default_rng(5 + sweep_seed % 97))

    @pytest.mark.parametrize("scenario", list_scenarios())
    def test_every_preset_through_autoreset(self, scenario):
        """Three autoreset episodes of every registered preset, every
        obs, reward and info field byte-equal to the scalar envs'."""
        seeds = [3, 4]
        vec = VectorHVACEnv(build_fleet(get_scenario(scenario), seeds))
        scalars = build_fleet(get_scenario(scenario), seeds)
        action_rng = np.random.default_rng(1)
        obs_v = vec.reset()
        for k, env in enumerate(scalars):
            _same(obs_v[k, : env.obs_dim], env.reset(), f"env {k} reset obs")
        for _ in range(3 * scalars[0].episode_steps):
            actions = [env.action_space.sample(action_rng) for env in scalars]
            vec_step = vec.step(actions)
            for k, env in enumerate(scalars):
                obs_k, rew_k, done_k, info_k = env.step(actions[k])
                if done_k:
                    _same(vec_step[3].terminal_obs[k, : env.obs_dim], obs_k, "terminal")
                    obs_k = env.reset()
                _assert_step_equal(k, env, vec_step, (obs_k, rew_k, done_k, info_k))

    def test_mixed_layouts_through_autoreset(self, week_weather):
        """Horizons {0, 3, 5} and zone counts {1, 4, 5} in one fleet with
        randomized starts: every row byte-equal to its scalar env through
        at least two autoresets of every env."""
        vec = VectorHVACEnv(_mixed_layout_envs(week_weather))
        scalars = _mixed_layout_envs(week_weather)
        assert len({env.obs_dim for env in scalars}) == len(scalars)
        action_rng = np.random.default_rng(2)
        obs_v = vec.reset()
        for k, env in enumerate(scalars):
            _same(obs_v[k, : env.obs_dim], env.reset(), f"env {k} reset obs")
            assert not obs_v[k, env.obs_dim :].any()
        resets = np.zeros(len(scalars), dtype=int)
        for _ in range(2 * scalars[0].episode_steps + 5):
            actions = [env.action_space.sample(action_rng) for env in scalars]
            vec_step = vec.step(actions)
            for k, env in enumerate(scalars):
                obs_k, rew_k, done_k, info_k = env.step(actions[k])
                if done_k:
                    _same(vec_step[3].terminal_obs[k, : env.obs_dim], obs_k, "terminal")
                    obs_k = env.reset()
                    resets[k] += 1
                _assert_step_equal(k, env, vec_step, (obs_k, rew_k, done_k, info_k))
        assert resets.min() >= 2

    def test_mixed_layouts_frozen_rows(self, week_weather):
        """Without autoreset, a finished row of a mixed-layout fleet keeps
        its scalar env's terminal observation, zero reward and done."""
        vec = VectorHVACEnv(_mixed_layout_envs(week_weather), autoreset=False)
        scalars = _mixed_layout_envs(week_weather)
        action_rng = np.random.default_rng(3)
        obs_v = vec.reset()
        for k, env in enumerate(scalars):
            _same(obs_v[k, : env.obs_dim], env.reset(), f"env {k} reset obs")
        terminal = [None] * len(scalars)
        for _ in range(scalars[0].episode_steps + 3):
            actions = [env.action_space.sample(action_rng) for env in scalars]
            obs_v, rew_v, done_v, info = vec.step(actions)
            for k, env in enumerate(scalars):
                if terminal[k] is None:
                    step_k = env.step(actions[k])
                    _assert_step_equal(k, env, (obs_v, rew_v, done_v, info), step_k)
                    if step_k[2]:
                        terminal[k] = step_k[0]
                else:
                    _same(obs_v[k, : env.obs_dim], terminal[k], f"env {k} frozen obs")
                    assert not obs_v[k, env.obs_dim :].any()
                    assert rew_v[k] == 0.0 and done_v[k] and not info.active[k]
        assert all(t is not None for t in terminal)

    def test_autoreset_matches_scalar_reset_cycle(self, summer_weather):
        """Across an episode boundary, autoreset rows equal a scalar
        reset's first observation (same RNG consumption)."""
        vec = VectorHVACEnv([_make_env(summer_weather, 0)], autoreset=True)
        scalar = _make_env(summer_weather, 0)
        obs_v = vec.reset()
        obs_s = scalar.reset()
        action = np.ones((1, 1), dtype=int)
        for _ in range(96):
            obs_v, _, done_v, info = vec.step(action)
            obs_s, _, done_s, _ = scalar.step(action[0])
            if done_s:
                _same(info.terminal_obs[0], obs_s, "terminal obs")
                obs_s = scalar.reset()
            _same(obs_v[0], obs_s, "obs")
        assert bool(done_v[0]) or vec.time_indices[0] > 0


class TestVectorEnvSemantics:
    def test_heterogeneous_fleet_padding(self, summer_weather):
        envs = [
            _make_env(summer_weather, 0),
            _make_env(summer_weather, 1, four_zone_office),
        ]
        vec = VectorHVACEnv(envs, autoreset=False)
        assert vec.max_zones == 4
        assert not vec.homogeneous
        assert vec.obs_dims.tolist() == [envs[0].obs_dim, envs[1].obs_dim]
        obs = vec.reset()
        assert obs.shape == (2, envs[1].obs_dim)
        # The single-zone row is right-padded with zeros.
        assert np.all(obs[0, envs[0].obs_dim :] == 0.0)
        actions = [np.array([1]), np.array([1, 0, 2, 1])]
        obs, rewards, dones, info = vec.step(actions)
        assert rewards.shape == (2,)
        # Padded zones never report violations or occupancy.
        assert np.all(info.violation_per_zone_deg[0, 1:] == 0.0)
        assert not np.any(info.occupied[0, 1:])

    def test_single_space_accessors_require_homogeneity(self, summer_weather):
        hetero = VectorHVACEnv(
            [
                _make_env(summer_weather, 0),
                _make_env(summer_weather, 1, four_zone_office),
            ]
        )
        with pytest.raises(ValueError):
            hetero.single_action_space
        homo = VectorHVACEnv([_make_env(summer_weather, s) for s in range(2)])
        assert homo.homogeneous
        assert homo.single_action_space == homo.envs[0].action_space

    def test_frozen_envs_without_autoreset(self, summer_weather):
        # One env's episode is half the other's: it must freeze when done.
        short = _make_env(summer_weather, 0, episode_days=0.5)
        long = _make_env(summer_weather, 1)
        vec = VectorHVACEnv([short, long], autoreset=False)
        vec.reset()
        action = np.ones((2, 1), dtype=int)
        rewards_after_done = []
        for t in range(96):
            _, rewards, dones, info = vec.step(action)
            if t >= 48:
                assert dones[0]
                rewards_after_done.append(rewards[0])
                assert not info.active[0]
        assert np.all(np.asarray(rewards_after_done) == 0.0)
        assert vec.dones.tolist() == [True, True]

    def test_step_before_reset_raises(self, summer_weather):
        vec = VectorHVACEnv([_make_env(summer_weather, 0)])
        with pytest.raises(RuntimeError):
            vec.step(np.ones((1, 1), dtype=int))

    def test_rejects_invalid_actions(self, summer_weather):
        vec = VectorHVACEnv([_make_env(summer_weather, 0)])
        vec.reset()
        with pytest.raises(ValueError):
            vec.step(np.full((1, 1), 99, dtype=int))
        with pytest.raises(ValueError):
            vec.step(np.ones((3, 1), dtype=int))

    def test_rejects_mixed_dt(self, summer_weather):
        from repro.weather import SyntheticWeatherConfig, generate_weather

        coarse = generate_weather(
            SyntheticWeatherConfig(),
            start_day_of_year=213,
            n_days=3,
            dt_seconds=1800.0,
            rng=0,
        )
        with pytest.raises(ValueError, match="dt_seconds"):
            VectorHVACEnv(
                [_make_env(summer_weather, 0), _make_env(coarse, 1)]
            )

    def test_env_view_serves_thermostat(self, summer_weather):
        """A thermostat bound to an env_view tracks the batch state."""
        vec = VectorHVACEnv([_make_env(summer_weather, s) for s in range(2)])
        scalar = _make_env(summer_weather, 0)
        view = vec.env_view(0)
        vec.reset()
        scalar.reset()
        _same(view.zone_temps_c, scalar.zone_temps_c, "view temps")
        thermostat = ThermostatController(view)
        action = thermostat.select_action(None)
        assert action.shape == (1,)
        vec.step(np.stack([action, action]))
        assert view.time_index == 1

    def test_env_view_refuses_the_stateful_surface(self):
        """A view reads its fleet row; what would act on the member env's
        own one-row fleet instead raises, naming the fleet call."""
        vec = VectorHVACEnv(build_fleet("baseline-tou", [0, 1]))
        vec.reset()
        for _ in range(5):
            vec.step(np.zeros((2, 1), dtype=int))
        view = vec.env_view(0)
        assert view.time_index == 5
        _same(view.zone_temps_c, vec.zone_temps_c[0], "view temps")
        for name, fleet_call in [
            ("reset", "fleet.reset()"), ("step", "fleet.step()"),
            ("state_dict", "fleet.state_dict()"),
            ("load_state_dict", "fleet.load_state_dict()"), ("_fleet", "fleet"),
            ("_tables", "fleet._tables"), ("_cols", "fleet._cols"),
            ("_step_rows", "fleet._step_rows()"),
        ]:
            with pytest.raises(AttributeError, match=re.escape(f"({fleet_call})")):
                getattr(view, name)
        # Static attributes still come from the member env.
        assert view.action_space is vec.envs[0].action_space
        assert view.building is vec.envs[0].building
        assert "_fleet" not in vec.envs[0].__dict__  # never built by the view
