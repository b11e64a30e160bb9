"""Property-based invariants of the HVAC environment.

These encode the contracts the agents rely on: reward decomposition,
energy bookkeeping, and plant/coil consistency, checked across random
action sequences.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.building import four_zone_office, single_zone_building
from repro.env import ComfortBand, HVACEnv, HVACEnvConfig
from repro.env.kernel import plant, step_columns
from repro.hvac import VAVConfig, VAVSystem
from repro.weather import SyntheticWeatherConfig, generate_weather


def make_env(n_zones: int, seed: int) -> HVACEnv:
    weather = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=213, n_days=2, rng=seed
    )
    building = single_zone_building() if n_zones == 1 else four_zone_office()
    return HVACEnv(
        building,
        weather,
        config=HVACEnvConfig(episode_days=1.0, comfort_weight=2.0),
        rng=seed,
    )


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000),
    st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
)
def test_per_zone_rewards_sum_to_scalar_reward(seed, first_actions):
    """info["reward_per_zone"] must decompose the reward exactly."""
    env = make_env(4, seed % 7)
    env.reset()
    for level in first_actions:
        action = np.full(4, level)
        _, reward, done, info = env.step(action)
        assert np.sum(info["reward_per_zone"]) == pytest.approx(reward, abs=1e-9)
        if done:
            break


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=100))
def test_energy_cost_consistent_with_tariff(seed):
    env = make_env(1, seed % 5)
    env.reset()
    rng = np.random.default_rng(seed)
    for _ in range(10):
        _, _, done, info = env.step([int(rng.integers(4))])
        expected = info["energy_kwh"] * info["price_per_kwh"]
        assert info["cost_usd"] == pytest.approx(expected, rel=1e-9)
        if done:
            break


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=100))
def test_reward_never_positive(seed):
    """Reward is -(cost) - λ·violation, both non-negative quantities."""
    env = make_env(1, seed % 5)
    env.reset()
    rng = np.random.default_rng(seed)
    done = False
    while not done:
        _, reward, done, _ = env.step([int(rng.integers(4))])
        assert reward <= 1e-12


def test_coil_thermal_balances_zone_extraction_when_no_outdoor_air():
    """With 0% outdoor air, the coil removes exactly the heat the supply
    air absorbs from the zones (sensible balance of the air loop)."""
    zones = [SimpleNamespace(solar_aperture_m2=0.0)] * 2
    env = SimpleNamespace(
        building=SimpleNamespace(n_zones=2, zones=zones),
        vav=VAVSystem(VAVConfig(outdoor_air_fraction=0.0, cop=1.0), 2),
        comfort=ComfortBand(),
        config=HVACEnvConfig(),
    )
    cols = step_columns([env])
    levels = np.array([[2, 3]])
    temps = np.array([[26.0, 24.0]])
    _, zone_heat, power = plant(cols, levels, temps, 35.0)
    _, _, fan = plant(cols, levels, np.full((1, 2), 5.0), 5.0)  # coil off
    coil_thermal = power[0] - fan[0]  # cop=1 -> thermal
    assert coil_thermal == pytest.approx(-zone_heat.sum(), rel=1e-9)


def test_zone_symmetry_under_identical_config():
    """Two identical zones driven identically stay identical."""
    from repro.building import Building, OfficeSchedule, ZoneConfig

    zones = [
        ZoneConfig(f"z{i}", 3.6e6, 130.0, 3.0, 100.0) for i in range(2)
    ]
    ua = np.array([[0.0, 50.0], [50.0, 0.0]])
    building = Building(zones, ua, [OfficeSchedule(), OfficeSchedule()])
    weather = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=213, n_days=2, rng=0
    )
    env = HVACEnv(
        building,
        weather,
        config=HVACEnvConfig(episode_days=1.0, initial_temp_noise_c=0.0),
        rng=0,
    )
    env.reset()
    rng = np.random.default_rng(1)
    for _ in range(30):
        level = int(rng.integers(4))
        _, _, _, info = env.step([level, level])
        temps = info["temps_c"]
        assert temps[0] == pytest.approx(temps[1], abs=1e-9)


def test_stronger_cooling_never_raises_temperature():
    """Monotone plant response: more airflow cannot leave the zone hotter
    (zone above supply temperature)."""
    weather = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=213, n_days=2, rng=0
    )
    results = []
    for level in range(4):
        env = HVACEnv(
            single_zone_building(),
            weather,
            config=HVACEnvConfig(episode_days=1.0, initial_temp_noise_c=0.0),
            rng=0,
        )
        env.reset()
        _, _, _, info = env.step([level])
        results.append(info["temps_c"][0])
    assert all(b <= a + 1e-9 for a, b in zip(results, results[1:]))
