"""Tests for the Building composition layer."""

import numpy as np
import pytest

from repro.building import (
    Building,
    ConstantSchedule,
    OfficeSchedule,
    ZoneConfig,
    single_zone_building,
)
from repro.env import HVACEnv
from repro.weather import WeatherSeries


def make_two_zone():
    zones = [
        ZoneConfig("a", 2e6, 100.0, 2.0, 80.0),
        ZoneConfig("b", 3e6, 120.0, 4.0, 120.0),
    ]
    ua = np.array([[0.0, 40.0], [40.0, 0.0]])
    return Building(zones, ua, [OfficeSchedule(), ConstantSchedule(gains=5.0)])


class TestConstruction:
    def test_properties(self):
        b = make_two_zone()
        assert b.n_zones == 2
        assert b.zone_names == ["a", "b"]
        assert b.floor_area_m2 == 200.0

    def test_rejects_no_zones(self):
        with pytest.raises(ValueError, match="at least one zone"):
            Building([], np.zeros((0, 0)), [])

    def test_rejects_schedule_count_mismatch(self):
        zones = [ZoneConfig("a", 2e6, 100.0, 2.0, 80.0)]
        with pytest.raises(ValueError, match="one schedule per zone"):
            Building(zones, np.zeros((1, 1)), [])

    def test_rejects_duplicate_names(self):
        zones = [
            ZoneConfig("a", 2e6, 100.0, 2.0, 80.0),
            ZoneConfig("a", 2e6, 100.0, 2.0, 80.0),
        ]
        with pytest.raises(ValueError, match="unique"):
            Building(zones, np.zeros((2, 2)), [ConstantSchedule(), ConstantSchedule()])


class TestGains:
    def test_solar_distribution_by_aperture(self):
        b = make_two_zone()
        gains = b.solar_gains_w(500.0)
        assert gains[0] == pytest.approx(2.0 * 500.0)
        assert gains[1] == pytest.approx(4.0 * 500.0)

    def test_solar_rejects_negative(self):
        with pytest.raises(ValueError, match="ghi"):
            make_two_zone().solar_gains_w(-1.0)

    def test_internal_gains_scale_with_area(self):
        b = make_two_zone()
        gains = b.internal_gains_w(1, 12.0)  # Monday noon: office occupied
        assert gains[0] == pytest.approx(20.0 * 80.0)
        assert gains[1] == pytest.approx(5.0 * 120.0)

    def test_occupancy_flags(self, summer_weather):
        # Each zone's flags come from its own schedule, read through the
        # env's time tables (sample 48 is noon, sample 8 is 02:00).
        weather = WeatherSeries(900.0, 1, summer_weather.temp_out_c, summer_weather.ghi_w_m2)
        occupied = HVACEnv(make_two_zone(), weather)._tables.occupied[0]
        assert occupied[48, 0] and occupied[48, 1]  # Monday noon
        assert not occupied[8, 0] and occupied[8, 1]  # constant stays occupied


def step_building(b, temps, temp_out_c, ghi_w_m2, hvac_heat_w, day, hour, dt):
    """One control step of a building: its gains plus HVAC heat, zero-order
    held through its RC network."""
    heat = b.solar_gains_w(ghi_w_m2) + b.internal_gains_w(day, hour) + hvac_heat_w
    return b.network.step(temps, temp_out_c, heat, dt)


class TestSimulation:
    def test_step_shape_and_motion(self):
        b = make_two_zone()
        temps = np.array([24.0, 24.0])
        out = step_building(b, temps, 35.0, 600.0, np.zeros(2), 1, 12.0, 900.0)
        assert out.shape == (2,)
        assert np.all(out > temps)  # hot day, no cooling: must warm

    def test_cooling_lowers_temperature(self):
        b = make_two_zone()
        temps = np.array([26.0, 26.0])
        free = step_building(b, temps, 30.0, 0.0, np.zeros(2), 1, 12.0, 900.0)
        cooled = step_building(
            b, temps, 30.0, 0.0, np.array([-3000.0, -3000.0]), 1, 12.0, 900.0
        )
        assert np.all(cooled < free)

    def test_hvac_shape_check(self):
        b = make_two_zone()
        with pytest.raises(ValueError):
            step_building(b, np.zeros(2), 20.0, 0.0, np.zeros(3), 1, 0.0, 900.0)

    def test_free_float_steady_state_above_ambient_with_gains(self):
        b = single_zone_building()
        heat = b.solar_gains_w(400.0) + b.internal_gains_w(1, 12.0)
        ss = b.network.steady_state(25.0, heat)
        assert ss[0] > 25.0

    def test_repr(self):
        assert "zones=" in repr(make_two_zone())
