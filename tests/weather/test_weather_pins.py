"""Byte pins for the synthetic weather generator and the heat-wave event.

The generator builds its seed-independent part (seasonal and diurnal
temperature terms, clear-sky GHI) once per clock and replays only the
two AR(1) recursions per building.  These digests were recorded from the
original one-sample-at-a-time generator, so any drift in the template,
the innovation draw order or the recursions shows up here as a changed
byte.  Each case also digests the next draw of the caller's generator:
the generator must leave the stream exactly where the per-sample
``rng.normal`` calls left it.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.sim.scenarios import get_scenario
from repro.weather import SyntheticWeatherConfig, generate_weather
from repro.weather.events import inject_heat_wave
from repro.weather.synthetic import mild_config, summer_config

CONFIGS = {
    "summer": summer_config,
    "mild": mild_config,
    "quiet": lambda: SyntheticWeatherConfig(noise_std_c=0.0, cloud_std=0.0),
}
START_DAYS = (1, 213, 360)  # 360 wraps the year inside the longer traces
DT_SECONDS = (300.0, 900.0, 3600.0)
N_DAYS = (1.5, 8.0, 10.0)
SEEDS = (0, 7, 20_260_727)

# sha256 over (temp bytes, ghi bytes, next standard normal of the
# caller's generator) for every (dt, n_days) case of one config and
# start day, in DT_SECONDS x N_DAYS order.
WEATHER_DIGESTS = {
    "summer-day1": "a35f061025a19b3450c3002917408cc6c6c3fcbb156dec1117baf49bef0d979c",
    "summer-day213": "9b4429acf5e2e3e24c63a3f5f17265857b9c82410eb66e74fae261a252dfd5c7",
    "summer-day360": "6437b3f9a77dab2e2f50150f8a8317e22f7024f8f3486f7b6cbf3d2248e7f04c",
    "mild-day1": "b2f82fab8743bc7cab3f3d38807c53f4d872f28f4c47ee25db4e9fe8b19e6152",
    "mild-day213": "5fe79dc5fc5ccba083ccc7c260b54ac6aca8cd307ab3477460c38ae23750e08b",
    "mild-day360": "99f5e4d6bcc1d4556914bfbdac12ca2fe20cc770f2d69aaa9998216a1f369450",
    "quiet-day1": "f063bdeacf32bf29965986a6e7e011ae67f4d7c1688fc2137e3f138174435b1c",
    "quiet-day213": "cefc06cf02495215fdf3e7ac95d0b10ba4eea7e5bf7b97c51c8cb47b81e70e52",
    "quiet-day360": "bd7f5676a286ac3d512f3356f58cc8d2c17bc742ea0ae59362f795618647f879",
}

HEAT_WAVE_DIGESTS = {
    "scenario-seed0": "71321bc4fa37c6f214c8b23678050773595d25660b2d5469af6aef3b5ec203bd",
    "scenario-seed1": "161defab8bf82b70f0ff993442621d397faf746cc82f43edff406a6df12b4b1a",
    "scenario-seed5": "25513b9f1356fc712493cb14da09a406d2fde3522b6dca844dc1a6c640a08a93",
    "hourly-wrap": "e658d7e8075c421b175e75ea3faa8aff24a571eb7b6b1fe1111c5f8171a8e42a",
}


def _case_seed(config: str, start_day: int, index: int) -> int:
    return SEEDS[(index + START_DAYS.index(start_day) + len(config)) % len(SEEDS)]


def _weather_digest(config: str, start_day: int) -> str:
    digest = hashlib.sha256()
    cases = itertools.product(DT_SECONDS, N_DAYS)
    for index, (dt, n_days) in enumerate(cases):
        rng = np.random.default_rng(_case_seed(config, start_day, index))
        series = generate_weather(
            CONFIGS[config](),
            start_day_of_year=start_day,
            n_days=n_days,
            dt_seconds=dt,
            rng=rng,
        )
        digest.update(series.temp_out_c.tobytes())
        digest.update(series.ghi_w_m2.tobytes())
        digest.update(np.float64(rng.standard_normal()).tobytes())
    return digest.hexdigest()


def _series_digest(series) -> str:
    digest = hashlib.sha256()
    digest.update(series.temp_out_c.tobytes())
    digest.update(series.ghi_w_m2.tobytes())
    return digest.hexdigest()


def _heat_wave_series(name: str):
    if name.startswith("scenario-seed"):
        seed = int(name[len("scenario-seed"):])
        return get_scenario("heat-wave").build(seed).weather
    # A wave that runs past the end of an hourly trace wrapping the year.
    base = generate_weather(
        summer_config(), start_day_of_year=362, n_days=5, dt_seconds=3600.0, rng=3
    )
    return inject_heat_wave(base, start_day=2, n_days=4, ghi_boost=1.4)


HEAT_WAVE_CASES = ("scenario-seed0", "scenario-seed1", "scenario-seed5", "hourly-wrap")


def compute_digests() -> dict:
    """Every pinned digest, as the current code computes it."""
    return {
        "weather": {
            f"{config}-day{day}": _weather_digest(config, day)
            for config in CONFIGS
            for day in START_DAYS
        },
        "heat_wave": {
            name: _series_digest(_heat_wave_series(name)) for name in HEAT_WAVE_CASES
        },
    }


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("start_day", START_DAYS)
def test_weather_bytes_pinned(config, start_day):
    key = f"{config}-day{start_day}"
    assert _weather_digest(config, start_day) == WEATHER_DIGESTS[key]


@pytest.mark.parametrize("name", HEAT_WAVE_CASES)
def test_heat_wave_bytes_pinned(name):
    assert _series_digest(_heat_wave_series(name)) == HEAT_WAVE_DIGESTS[name]


def test_caller_generator_ends_where_per_sample_draws_left_it():
    # The original generator drew rng.normal(0, std) twice per sample
    # (temperature, then cloud): 2 * n standard normals in total.
    rng = np.random.default_rng(11)
    generate_weather(summer_config(), start_day_of_year=213, n_days=2, rng=rng)
    reference = np.random.default_rng(11)
    reference.standard_normal(2 * 192)
    assert rng.standard_normal() == reference.standard_normal()
    assert rng.bit_generator.state == reference.bit_generator.state
