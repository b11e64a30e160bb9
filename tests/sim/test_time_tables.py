"""Byte pins for the time-indexed input tables.

``repro.env.observation.time_tables`` precomputes weather, price,
occupancy, gains and clock features as ``(n_envs, T)`` tables — for a
fleet at construction, for a scalar env as its one-row tables — building
each tariff or schedule row once per shared clock and copying it to
every env that uses it.  The digests below were recorded from the
original per-sample construction over a mixed fleet whose traces have
uneven lengths, so the padding past each trace end is pinned too.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from repro.building import Building, ConstantSchedule, single_zone_building
from repro.env import HVACEnv, HVACEnvConfig, observation
from repro.hvac.tariffs import FlatTariff, Tariff, TimeOfUseTariff
from repro.sim import VectorHVACEnv
from repro.sim.scenarios import get_scenario
from repro.weather import SyntheticWeatherConfig, generate_weather

# Each pinned table as a view of the stacked TimeTables arrays.
TABLES = {
    "temp_out": lambda tab: tab.exo[..., 0],
    "ghi": lambda tab: tab.exo[..., 1],
    "price": lambda tab: tab.exo[..., 2],
    "occupied": lambda tab: tab.occupied,
    "gains": lambda tab: tab.gains,
    "sin_hour": lambda tab: tab.clock[..., 0],
    "cos_hour": lambda tab: tab.clock[..., 1],
    "workday": lambda tab: tab.clock[..., 2],
    "day": lambda tab: tab.day,
    "hour": lambda tab: tab.hour,
}

# (scenario, weather_days, seed): uneven trace lengths exercise padding.
MIXED_FLEET = (
    ("baseline-tou", 8.0, 0),
    ("five-zone-office", 3.5, 1),
    ("dr-event", 6.25, 2),
    ("heat-wave", 8.0, 3),
    ("mild-winter", 2.0, 4),
    ("baseline-tou", 5.0, 5),
    ("dr-event", 6.25, 6),
)

TABLE_DIGESTS = {
    "temp_out": "e2be4980b88494dbdf5852a398d6f0913f52effe6d57d516bce45fb679bf942c",
    "ghi": "9544bc76d4d3f763fd2b79b27c241753b10567f58ff7b44e49589ed2af9975bc",
    "price": "49047c906a37456a166cef72207710959082981ad9f46e946d683ed9078a9658",
    "occupied": "7b910fd3df3350139301f652ea47e2c6a22a233b4bcca1d1ed1f436089dc78de",
    "gains": "692a2ba164e2fad8e2f60b242ded1e1e92528f623d88be142a7ec814872832f3",
    "sin_hour": "fbd694016e0f0d3a0f31e1ae0e240e7630e798c935903b8b22a7174cfd3cc4ae",
    "cos_hour": "dec4b1b19825c1f0a13ed53674725cdfc588493a8e7289613137d9be7dc0a5f9",
    "workday": "fdf006b11e46a0641ffddcce7df3303d81c50635899c3b776d4d36f78887a648",
    "day": "89d565bc3fc3ed9604fabffe4b6eaeb3a7390476af524528b9413e57ce951241",
    "hour": "6c43b79e0a2dfe502246673dddcdc0524a0b84586dea7597faa97398d2aae4e6",
}


def _table_digest(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _mixed_fleet() -> VectorHVACEnv:
    return VectorHVACEnv(
        [
            get_scenario(name).with_overrides(weather_days=days).build(seed)
            for name, days, seed in MIXED_FLEET
        ]
    )


def compute_digests() -> dict:
    """Every pinned digest, as the current code computes it."""
    tables = _mixed_fleet()._tables
    return {name: _table_digest(view(tables)) for name, view in TABLES.items()}


@pytest.fixture(scope="module")
def mixed_fleet():
    return _mixed_fleet()


@pytest.mark.parametrize("table", TABLES)
def test_time_table_bytes_pinned(mixed_fleet, table):
    view = TABLES[table](mixed_fleet._tables)
    assert _table_digest(view) == TABLE_DIGESTS[table]


# ------------------------------------------------ unhashable components
class _RampTariff(Tariff):
    """A mutable, unhashable tariff whose price moves every sample."""

    __hash__ = None

    def __init__(self, base: float) -> None:
        self.base = base

    def __eq__(self, other) -> bool:
        return isinstance(other, _RampTariff) and other.base == self.base

    def price_per_kwh(self, day_of_year: int, hour_of_day: float) -> float:
        return self.base + 0.01 * hour_of_day + 0.001 * day_of_year


class _LunchSchedule(ConstantSchedule):
    """An unhashable schedule: occupied except over lunch, gains by hour."""

    __hash__ = None

    def occupied(self, day_of_year: int, hour_of_day: float) -> bool:
        return not 12.0 <= hour_of_day < 13.0

    def gains_w_per_m2(self, day_of_year: int, hour_of_day: float) -> float:
        return self.gains + 0.5 * hour_of_day + 0.01 * day_of_year


def _custom_env(weather, tariff, schedule, seed) -> HVACEnv:
    template = single_zone_building()
    building = Building(
        template.zones, template.network.ua_interzone, schedules=[schedule]
    )
    return HVACEnv(
        building,
        weather,
        tariff=tariff,
        config=HVACEnvConfig(episode_days=1.0),
        rng=seed,
    )


def test_unhashable_tariff_and_schedule_match_per_sample_calls():
    short = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=364, n_days=2, rng=0
    )
    long = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=100, n_days=3, rng=1
    )
    tariff = _RampTariff(0.1)
    schedule = _LunchSchedule(gains=4.0)
    with pytest.raises(TypeError):
        hash(tariff)
    with pytest.raises(TypeError):
        hash(schedule)
    envs = [
        _custom_env(short, tariff, schedule, 0),
        _custom_env(long, tariff, schedule, 1),
        _custom_env(short, _RampTariff(0.2), schedule, 2),
        _custom_env(long, TimeOfUseTariff(), ConstantSchedule(), 3),
    ]
    tab = VectorHVACEnv(envs)._tables
    for k, env in enumerate(envs):
        weather = env.weather
        area = env.building.zones[0].floor_area_m2
        sched = env.building.schedules[0]
        for i in range(len(weather)):
            day, hour = weather.day_of_year(i), weather.hour_of_day(i)
            assert tab.exo[k, i, 2] == env.tariff.price_per_kwh(day, hour)
            assert tab.occupied[k, i, 0] == sched.occupied(day, hour)
            assert tab.gains[k, i, 0] == sched.gains_w_per_m2(day, hour) * area
        last = len(weather) - 1
        # Padding past a short trace repeats nothing for price and
        # schedules: those stay zero, as the step never reads them.
        assert np.all(tab.exo[k, last + 1:, 2] == 0.0)
        assert not tab.occupied[k, last + 1:].any()


# ------------------------------------------------ process-wide row memo
_PRICE_CALLS = []
_TAGS = itertools.count(1)


@dataclass(frozen=True)
class _CountingTariff(FlatTariff):
    """A value-hashable flat tariff that logs every price lookup;
    ``tag`` makes each test's instance a key no earlier call memoized."""

    tag: int = 0

    def price_per_kwh(self, day_of_year: int, hour_of_day: float) -> float:
        _PRICE_CALLS.append((day_of_year, hour_of_day))
        return super().price_per_kwh(day_of_year, hour_of_day)


def test_scalar_envs_on_one_clock_share_tariff_rows():
    """Two scalar envs (two one-row fleets) on one clock and tariff
    price each sample once between them, and share read-only rows."""
    weather = generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=150, n_days=2, rng=0
    )
    tag = next(_TAGS)
    envs = [
        HVACEnv(single_zone_building(), weather, tariff=_CountingTariff(tag=tag), rng=s)
        for s in range(2)
    ]
    _PRICE_CALLS.clear()
    for env in envs:
        env.reset()
    assert len(_PRICE_CALLS) == len(weather)
    a, b = (env._tables.exo[0, :, 2] for env in envs)
    np.testing.assert_array_equal(a, b)
    clock = (weather.start_day_of_year, len(weather), weather.dt_seconds)
    (row,) = observation._component_rows(envs[0].tariff, observation._TARIFF_METHODS, clock)
    assert not row.flags.writeable
    assert len(_PRICE_CALLS) == len(weather)


def test_component_row_memo_stays_within_its_bound():
    memo = observation._memo_sample
    bound = observation.COMPONENT_ROW_MEMO_SIZE
    assert memo.cache_info().maxsize == bound
    for _ in range(bound + 3):
        observation._component_rows(
            _CountingTariff(tag=next(_TAGS)), observation._TARIFF_METHODS, (1, 4, 900.0)
        )
    assert memo.cache_info().currsize <= bound
