"""Tests for the building presets used by the experiments."""

import numpy as np
import pytest

from repro.building import (
    five_zone_perimeter_core,
    four_zone_office,
    single_zone_building,
)


class TestSingleZone:
    def test_one_zone(self):
        b = single_zone_building()
        assert b.n_zones == 1

    def test_reasonable_time_constant(self):
        tau = b = single_zone_building().zones[0].time_constant_hours
        assert 2.0 < tau < 24.0  # office-zone range

    def test_custom_aperture(self):
        b = single_zone_building(solar_aperture_m2=10.0)
        assert b.zones[0].solar_aperture_m2 == 10.0


class TestFourZone:
    def test_four_zones_ring(self):
        b = four_zone_office()
        assert b.n_zones == 4
        ua = b.network.ua_interzone
        # Ring: each zone couples to exactly two neighbours.
        assert np.all((ua > 0).sum(axis=1) == 2)

    def test_south_has_most_solar(self):
        b = four_zone_office()
        apertures = {z.name: z.solar_aperture_m2 for z in b.zones}
        assert apertures["south"] == max(apertures.values())
        assert apertures["north"] == min(apertures.values())

    def test_south_zone_warms_faster_in_sun(self):
        b = four_zone_office()
        temps = np.full(4, 24.0)
        heat = b.solar_gains_w(800.0) + b.internal_gains_w(1, 12.0)
        out = b.network.step(temps, 30.0, heat, 900.0)
        names = b.zone_names
        assert out[names.index("south")] > out[names.index("north")]


class TestFiveZone:
    def test_five_zones_with_core(self):
        b = five_zone_perimeter_core()
        assert b.n_zones == 5
        assert "core" in b.zone_names

    def test_core_has_no_solar(self):
        b = five_zone_perimeter_core()
        core = b.zones[b.zone_names.index("core")]
        assert core.solar_aperture_m2 == 0.0

    def test_core_couples_to_all_perimeter(self):
        b = five_zone_perimeter_core()
        core_idx = b.zone_names.index("core")
        ua = b.network.ua_interzone
        assert np.all(ua[core_idx, :core_idx] > 0)

    def test_core_nearly_isolated_from_ambient(self):
        b = five_zone_perimeter_core()
        core = b.zones[b.zone_names.index("core")]
        perimeter_ua = b.zones[0].ua_ambient_w_per_k
        assert core.ua_ambient_w_per_k < 0.1 * perimeter_ua

    def test_steady_state_well_defined(self):
        b = five_zone_perimeter_core()
        heat = b.solar_gains_w(500.0) + b.internal_gains_w(1, 12.0)
        ss = b.network.steady_state(30.0, heat)
        assert np.all(np.isfinite(ss))
        assert np.all(ss > 30.0)  # gains push all zones above ambient
