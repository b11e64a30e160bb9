"""Fleet-form thermostat and PID against scalar controllers on env views.

Each fleet row must decide byte-identically to a scalar controller bound
to ``env_view(k)`` — clean and faulted fleets, single-zone and padded
mixed fleets, frozen rows after uneven episode ends, and two episodes.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import (
    FleetPID,
    FleetThermostat,
    PIDController,
    ThermostatController,
)
from repro.eval import PerEnvPolicy, VectorRunner
from repro.faults import FaultyVectorHVACEnv
from repro.sim import VectorHVACEnv, get_scenario

# Uneven episode ends: half-day rows freeze while the others still step.
_HALF_DAY = get_scenario("baseline-tou").with_overrides(
    name="fleet-ctrl-1z", weather_days=2.0, episode_days=0.5
)
_HEAT = get_scenario("heat-wave").with_overrides(
    name="fleet-ctrl-heat", weather_days=2.0, episode_days=0.75
)
_FIVE_ZONE = get_scenario("five-zone-office").with_overrides(
    name="fleet-ctrl-5z", weather_days=2.0, episode_days=0.75
)
FLEETS = {
    "single-zone": [(_HALF_DAY, 0), (_HALF_DAY, 1), (_HEAT, 2)],
    "mixed": [(_HALF_DAY, 0), (_FIVE_ZONE, 1), (_HALF_DAY, 2), (_FIVE_ZONE, 3)],
}
PROFILES = ["none", "noisy-sensors", "stuck-thermistor"]


def _fleet(kind, profile):
    members = FLEETS[kind]
    vec = VectorHVACEnv([s.build(seed) for s, seed in members], autoreset=False)
    if profile == "none":
        return vec
    return FaultyVectorHVACEnv(vec, profile, seeds=[seed for _, seed in members])


CONTROLLERS = {
    "thermostat": (FleetThermostat, ThermostatController),
    "pid": (FleetPID, PIDController),
}


def _assert_decisions_match(vec, fleet_ctrl, scalars, n_episodes=2):
    """Drive ``vec`` with the fleet controller's actions; every step, each
    row must equal the scalar controller of that env byte for byte."""
    n_zones = vec.n_zones
    frozen_decisions = 0
    for _ in range(n_episodes):
        obs = vec.reset()
        fleet_ctrl.begin_episode(obs)
        for k, ctrl in enumerate(scalars):
            ctrl.begin_episode(obs[k, : vec.obs_dims[k]])
        while not vec.dones.all():
            levels = fleet_ctrl.select_actions(obs)
            assert levels.dtype == np.int64
            assert levels.shape == (vec.n_envs, vec.max_zones)
            for k, ctrl in enumerate(scalars):
                m = n_zones[k]
                expected = ctrl.select_action(obs[k, : vec.obs_dims[k]])
                assert expected.dtype == np.int64
                assert levels[k, :m].tobytes() == expected.tobytes(), f"row {k}"
                assert not levels[k, m:].any(), f"row {k} padding"
            frozen_decisions += int(vec.dones.sum())
            obs, _, _, _ = vec.step(levels)
    # The uneven ends must have left rows frozen while others stepped.
    assert frozen_decisions > 0


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("kind", sorted(FLEETS))
@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_fleet_rows_match_scalar_controllers(name, kind, profile):
    fleet_cls, scalar_cls = CONTROLLERS[name]
    vec = _fleet(kind, profile)
    scalars = [scalar_cls(vec.env_view(k)) for k in range(vec.n_envs)]
    _assert_decisions_match(vec, fleet_cls(vec), scalars)


@pytest.mark.parametrize("profile", ["none", "noisy-sensors"])
@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_runner_metrics_match_per_env_policy(name, profile):
    fleet_cls, scalar_cls = CONTROLLERS[name]
    fleet_vec = _fleet("mixed", profile)
    scalar_vec = _fleet("mixed", profile)
    fleet_policy = PerEnvPolicy.of_fleet(fleet_cls(fleet_vec))
    per_env_policy = PerEnvPolicy(
        [scalar_cls(scalar_vec.env_view(k)) for k in range(scalar_vec.n_envs)],
        scalar_vec.obs_dims,
    )
    fleet_summaries = VectorRunner(fleet_vec, fleet_policy).evaluate(n_episodes=2)
    per_env_summaries = VectorRunner(scalar_vec, per_env_policy).evaluate(n_episodes=2)
    assert fleet_summaries == per_env_summaries


class TestPerEnvPolicyOfFleet:
    def test_select_actions_returns_the_level_matrix(self):
        vec = _fleet("mixed", "none")
        policy = PerEnvPolicy.of_fleet(FleetThermostat(vec))
        obs = vec.reset()
        policy.begin_episode(obs)
        levels = policy.select_actions(obs)
        assert isinstance(levels, np.ndarray)
        assert levels.shape == (vec.n_envs, vec.max_zones)
        assert levels.dtype == np.int64

    def test_begin_episode_resets_every_row(self):
        vec = _fleet("mixed", "none")
        pid = FleetPID(vec)
        thermostat = FleetThermostat(vec)
        obs = vec.reset()
        policy_pid = PerEnvPolicy.of_fleet(pid)
        policy_pid.select_actions(obs)
        thermostat._state[:] = True
        assert pid._initialized.all()
        PerEnvPolicy.of_fleet(thermostat).begin_episode(obs)
        policy_pid.begin_episode(obs)
        assert not thermostat._state.any()
        assert not pid._initialized.any()
        assert not pid._integral.any() and not pid._last_error.any()


def test_fleet_thermostat_needs_an_on_level_above_off_on_every_row():
    one_level_row = SimpleNamespace(
        n_envs=2, n_levels=np.array([4, 1]), zone_mask=np.ones((2, 1), dtype=bool)
    )
    with pytest.raises(ValueError, match="on_level"):
        FleetThermostat(one_level_row)
