"""Tests for the scenario registry."""

import numpy as np
import pytest

from repro.env import HVACEnv
from repro.hvac.tariffs import DemandResponseTariff, FlatTariff, TimeOfUseTariff
from repro.sim import (
    Scenario,
    build_fleet,
    get_scenario,
    list_scenarios,
    register_scenario,
)


class TestRegistry:
    def test_presets_registered(self):
        names = list_scenarios()
        for expected in (
            "baseline-tou",
            "heat-wave",
            "mild-winter",
            "dr-event",
            "flat-tariff",
            "four-zone-office",
            "five-zone-office",
        ):
            assert expected in names

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="available"):
            get_scenario("no-such-scenario")

    def test_register_rejects_duplicates(self):
        scenario = get_scenario("baseline-tou")
        with pytest.raises(ValueError):
            register_scenario(scenario)


class TestScenarioBuild:
    def test_build_is_deterministic_in_seed(self):
        scenario = get_scenario("baseline-tou")
        a, b = scenario.build(3), scenario.build(3)
        assert isinstance(a, HVACEnv)
        np.testing.assert_array_equal(a.weather.temp_out_c, b.weather.temp_out_c)
        np.testing.assert_allclose(a.reset(), b.reset())

    def test_tariff_selection(self):
        assert isinstance(get_scenario("flat-tariff").build(0).tariff, FlatTariff)
        assert isinstance(get_scenario("baseline-tou").build(0).tariff, TimeOfUseTariff)
        dr = get_scenario("dr-event").build(0).tariff
        assert isinstance(dr, DemandResponseTariff)
        assert len(dr.event_days) == 2

    def test_dr_events_wrap_at_year_end(self):
        scenario = get_scenario("dr-event").with_overrides(
            name="dr-late", start_day_of_year=365
        )
        tariff = scenario.build(0).tariff
        assert len(tariff.event_days) == 2
        # Wrapped day-of-year values, matching the weather clock's range.
        assert all(1 <= d <= 365 for d in tariff.event_days)
        assert any(d < 10 for d in tariff.event_days)

    def test_heat_wave_raises_temperature(self):
        base = get_scenario("baseline-tou").build(0)
        wave = get_scenario("heat-wave").build(0)
        assert wave.weather.temp_out_c.max() > base.weather.temp_out_c.max() + 3.0

    def test_building_selection(self):
        assert get_scenario("four-zone-office").build(0).building.n_zones == 4
        assert get_scenario("five-zone-office").build(0).building.n_zones == 5

    def test_comfort_band_override(self):
        env = get_scenario("relaxed-comfort").build(0)
        assert env.comfort.occupied_low_c == 21.0
        assert env.comfort.occupied_high_c == 27.0

    def test_invalid_keys_rejected(self):
        with pytest.raises(ValueError, match="building"):
            Scenario(name="x", building="skyscraper")
        with pytest.raises(ValueError, match="climate"):
            Scenario(name="x", climate="tropical")
        with pytest.raises(ValueError, match="tariff"):
            Scenario(name="x", tariff="spot")

    def test_with_overrides(self):
        scenario = get_scenario("baseline-tou").with_overrides(
            name="short", weather_days=2.0
        )
        assert scenario.weather_days == 2.0
        assert len(scenario.build(0).weather) == 2 * 96

    def test_build_fleet(self):
        envs = build_fleet("baseline-tou", seeds=[0, 1, 2])
        assert len(envs) == 3
        # Different seeds give different weather realizations.
        assert not np.array_equal(
            envs[0].weather.temp_out_c, envs[1].weather.temp_out_c
        )
        with pytest.raises(ValueError):
            build_fleet("baseline-tou", seeds=[])

    @pytest.mark.parametrize(
        "seeds", [np.arange(3), np.array([0, 1, 2], dtype=np.uint8), range(3)]
    )
    def test_build_fleet_takes_any_seed_iterable(self, seeds):
        expected = build_fleet("baseline-tou", [0, 1, 2])
        envs = build_fleet("baseline-tou", seeds)
        assert len(envs) == 3
        for env, ref in zip(envs, expected):
            assert np.array_equal(env.weather.temp_out_c, ref.weather.temp_out_c)
            assert np.array_equal(env.weather.ghi_w_m2, ref.weather.ghi_w_m2)
            assert env._rng.bit_generator.state == ref._rng.bit_generator.state
            assert np.array_equal(env.reset(), ref.reset())

    def test_build_fleet_refuses_an_empty_generator(self):
        with pytest.raises(ValueError, match="need at least one seed"):
            build_fleet("baseline-tou", (seed for seed in []))
