"""Cold-start contracts of fleet construction.

Weather is built per building through the ``generate_weather`` name in
``repro.sim.scenarios`` (profilers and benchmarks wrap that name to time
and count every building's weather), while the seed-independent weather
template behind it is memoized per clock in bounded caches.
"""

from __future__ import annotations

import numpy as np

import repro.sim.scenarios as scenarios
from repro.sim import VectorHVACEnv, build_fleet
from repro.sim.scenarios import get_scenario
from repro.weather import SyntheticWeatherConfig, generate_weather
from repro.weather import solar, synthetic


def test_build_fleet_calls_module_generate_weather_once_per_building(monkeypatch):
    returned = []
    original = scenarios.generate_weather

    def counting(*args, **kwargs):
        series = original(*args, **kwargs)
        returned.append(series)
        return series

    monkeypatch.setattr(scenarios, "generate_weather", counting)
    seeds = [0, 1, 2, 3, 9]
    envs = build_fleet("baseline-tou", seeds)
    assert len(returned) == len(seeds)
    assert all(env.weather is series for env, series in zip(envs, returned))

    returned.clear()
    waves = build_fleet("heat-wave", seeds[:3])
    assert len(returned) == 3
    for env, series in zip(waves, returned):
        # The heat wave is superimposed on exactly what the call returned.
        assert len(env.weather) == len(series)
        assert not np.array_equal(env.weather.temp_out_c, series.temp_out_c)


def test_template_memos_stay_within_their_bound():
    memos = (synthetic._temperature_base, solar.clear_sky_row)
    bound = solar.ROW_MEMO_SIZE
    assert all(memo.cache_info().maxsize == bound for memo in memos)
    config = SyntheticWeatherConfig()
    for start_day in range(1, bound + 6):
        generate_weather(config, start_day_of_year=start_day, n_days=0.25, rng=0)
    for memo in memos:
        assert memo.cache_info().currsize <= bound


def test_memoized_template_rows_are_read_only_and_not_shared():
    config = SyntheticWeatherConfig(noise_std_c=0.0, cloud_std=0.0)
    a = generate_weather(config, start_day_of_year=100, n_days=1, rng=0)
    b = generate_weather(config, start_day_of_year=100, n_days=1, rng=1)
    row = solar.clear_sky_row(config.latitude_deg, 100, len(a), a.dt_seconds)
    assert not row.flags.writeable
    # Noise-free traces equal the template but own their arrays.
    assert np.array_equal(a.temp_out_c, b.temp_out_c)
    assert a.temp_out_c.flags.writeable and a.ghi_w_m2.flags.writeable
    assert not np.shares_memory(a.ghi_w_m2, b.ghi_w_m2)


def test_building_envs_and_fleets_builds_no_one_row_fleet(monkeypatch):
    """A scalar env builds its one-row fleet on first use only: neither
    ``scenario.build()`` nor a fleet over N scalar envs constructs one
    (each would cost its own time tables and columns)."""
    inits = []
    original = VectorHVACEnv.__init__

    def counting(self, envs, **kwargs):
        inits.append(len(envs))
        original(self, envs, **kwargs)

    monkeypatch.setattr(VectorHVACEnv, "__init__", counting)
    env = get_scenario("five-zone-office").build(0)
    assert inits == []
    envs = build_fleet("baseline-tou", [0, 1, 2])
    fleet = VectorHVACEnv(envs)
    fleet.reset()
    fleet.step(np.ones((3, 1), dtype=int))
    assert inits == [3]
    assert all("_fleet" not in vars(e) for e in envs + [env])
    env.reset()
    assert inits == [3, 1]
