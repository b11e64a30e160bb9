"""Cold-start contracts of fleet construction.

Weather is built per building through the ``generate_weather`` name in
``repro.sim.scenarios`` (profilers and benchmarks wrap that name to time
and count every building's weather), while the seed-independent weather
template behind it is memoized per clock in bounded caches.  A fleet's
envs share one seed-independent world (building, tariff, comfort band,
config), and within one grid run each (scenario, seed)'s weather series
is built once and shared by every cell that asks for it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.scenarios as scenarios
from repro.sim import CampaignSpec, VectorHVACEnv, build_fleet, run_campaign
from repro.sim.campaign import CAMPAIGN_TELEMETRY, CampaignRow, expand_campaign
from repro.sim.grid import run_grid
from repro.sim.scenarios import get_scenario, run_weather
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


@pytest.fixture
def weather_calls(monkeypatch):
    """Count the calls of the module ``generate_weather``."""
    calls = []
    original = scenarios.generate_weather

    def counting(*args, **kwargs):
        calls.append(kwargs["rng"])
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "generate_weather", counting)
    return calls


def _rollout(fleet: VectorHVACEnv, steps: int) -> list:
    """Obs, reward and done bytes of ``steps`` fixed-action steps."""
    rng = np.random.default_rng(7)
    out = [fleet.reset().tobytes()]
    for _ in range(steps):
        actions = rng.integers(0, 3, size=(fleet.n_envs, fleet.max_zones))
        obs, reward, done, _ = fleet.step(actions)
        out += [obs.tobytes(), reward.tobytes(), done.tobytes()]
    return out


@pytest.mark.parametrize("name", ["heat-wave", "five-zone-office", "dr-event"])
def test_fleet_shares_one_world_and_matches_scalar_builds(name):
    scenario = get_scenario(name)
    seeds = [3, 0, 5]
    envs = build_fleet(scenario, seeds)
    first = envs[0]
    for env in envs:
        assert env.building is first.building
        assert env.tariff is first.tariff and env.config is first.config
    singles = [scenario.build(seed) for seed in seeds]
    for env, single in zip(envs, singles):
        assert env.building is not single.building
        assert env.weather.temp_out_c.tobytes() == single.weather.temp_out_c.tobytes()
        assert env.weather.ghi_w_m2.tobytes() == single.weather.ghi_w_m2.tobytes()
    steps = first.episode_steps
    fleet = VectorHVACEnv(envs, autoreset=False)
    alone = VectorHVACEnv(singles, autoreset=False)
    assert _rollout(fleet, steps) == _rollout(alone, steps)


def _small_spec(**overrides) -> CampaignSpec:
    fast = [
        get_scenario(name).with_overrides(name=f"fast-{name}", weather_days=2.0)
        for name in ("baseline-tou", "heat-wave")
    ]
    axes = dict(
        scenarios=tuple(fast),
        controllers=("thermostat", "pid"),
        faults=("none", "noisy-sensors"),
        seeds=(0, 4),
    )
    axes.update(overrides)
    return CampaignSpec(**axes)


def test_serial_campaign_builds_each_scenario_seed_weather_once(weather_calls):
    spec = _small_spec()
    s, f, c, k = (len(spec.scenarios), len(spec.faults), len(spec.controllers),
                  len(spec.seeds))
    first = run_campaign(spec)
    assert len(weather_calls) == s * k  # not s * f * c * k
    assert weather_calls == [1, 5, 1, 5]
    # A second run generates everything again: nothing outlives a run.
    second = run_campaign(spec)
    assert len(weather_calls) == 2 * s * k
    assert [r.as_dict() for r in first.rows] == [r.as_dict() for r in second.rows]
    assert len(first.rows) == s * f * c


def test_run_memo_keeps_every_scenario_seed_of_the_run(weather_calls):
    a, b = get_scenario("baseline-tou"), get_scenario("heat-wave")
    with run_weather():
        build_fleet(a, [0, 1])
        build_fleet(a, [1, 0, 2])
        assert weather_calls == [1, 2, 3]
        build_fleet(b, [0])
        # Switching back to a scenario reuses its series: no order loses hits.
        build_fleet(a, [0, 2])
        build_fleet(b, [0])
        assert weather_calls == [1, 2, 3, 1]
    build_fleet(a, [0])
    assert len(weather_calls) == 5


def test_no_memo_remains_after_a_run():
    assert scenarios._RUN_WEATHER.get() is None
    run_campaign(_small_spec(controllers=("thermostat",), faults=("none",)))
    assert scenarios._RUN_WEATHER.get() is None

    seen = []

    def failing(job):
        build_fleet(job.scenario, job.seeds)
        seen.append(scenarios._RUN_WEATHER.get())
        raise RuntimeError("cell failed")

    jobs = expand_campaign(_small_spec())
    with pytest.raises(RuntimeError, match="cell failed"):
        run_grid(jobs, failing, CampaignRow.from_dict, names=CAMPAIGN_TELEMETRY)
    assert seen and seen[0] is not None
    assert scenarios._RUN_WEATHER.get() is None
