"""Tests for the VAV plant: its parameters and the kernel's plant stage."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env import ComfortBand, HVACEnvConfig
from repro.env.kernel import plant, step_columns
from repro.hvac import VAVConfig, VAVSystem
from repro.hvac.vav import AIR_CP_J_PER_KG_K


class TestVAVConfig:
    def test_defaults_valid(self):
        cfg = VAVConfig()
        assert cfg.n_levels == 4
        assert cfg.max_flow_kg_s == 0.45

    def test_rejects_nonzero_first_level(self):
        with pytest.raises(ValueError, match="first flow level"):
            VAVConfig(flow_levels_kg_s=(0.1, 0.2))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            VAVConfig(flow_levels_kg_s=(0.0, 0.3, 0.2))

    def test_rejects_single_level(self):
        with pytest.raises(ValueError, match="at least two"):
            VAVConfig(flow_levels_kg_s=(0.0,))

    def test_rejects_bad_oaf(self):
        with pytest.raises(ValueError, match="outdoor_air_fraction"):
            VAVConfig(outdoor_air_fraction=1.5)

    def test_rejects_bad_cop(self):
        with pytest.raises(ValueError, match="cop"):
            VAVConfig(cop=0.0)


def _columns(cfg, n_zones):
    """One-row kernel columns for a plant serving ``n_zones`` zones."""
    env = SimpleNamespace(
        building=SimpleNamespace(
            n_zones=n_zones,
            zones=[SimpleNamespace(solar_aperture_m2=0.0)] * n_zones,
        ),
        vav=VAVSystem(cfg, n_zones),
        comfort=ComfortBand(),
        config=HVACEnvConfig(),
    )
    return step_columns([env])


def _plant(cfg, levels, temps, temp_out=30.0):
    """``(heat per zone, electric power)`` of one plant row."""
    cols = _columns(cfg, len(levels))
    _, heat, power = plant(
        cols, np.array([levels]), np.array([temps], dtype=float), temp_out
    )
    return heat[0], float(power[0])


def _heat(cfg, levels, temps):
    return _plant(cfg, levels, temps)[0]


def _fan(cfg, levels):
    """Fan power alone: zones and outdoor air below supply temperature
    leave the coil off (free cooling)."""
    return _plant(cfg, levels, [5.0] * len(levels), temp_out=5.0)[1]


def _coil(cfg, levels, temps, temp_out):
    """Coil power: plant power less the fan's."""
    return _plant(cfg, levels, temps, temp_out)[1] - _fan(cfg, levels)


class TestThermal:
    def test_off_gives_zero_heat(self):
        heat = _heat(VAVConfig(), [0, 0], [25.0, 25.0])
        assert np.allclose(heat, 0.0)

    def test_cooling_is_negative_heat(self):
        heat = _heat(VAVConfig(), [3], [25.0])
        assert heat[0] < 0  # supply at 12.8 C cools a 25 C zone

    def test_heat_magnitude_formula(self):
        cfg = VAVConfig()
        heat = _heat(cfg, [3], [25.0])
        expect = cfg.max_flow_kg_s * AIR_CP_J_PER_KG_K * (cfg.supply_temp_c - 25.0)
        assert heat[0] == pytest.approx(expect)

    def test_warms_cold_zone(self):
        # Below supply temperature the same airflow heats the zone.
        heat = _heat(VAVConfig(), [3], [5.0])
        assert heat[0] > 0

    def test_heat_per_zone_follows_its_own_level(self):
        heat = _heat(VAVConfig(), [0, 1, 3], [25.0, 25.0, 25.0])
        assert heat[0] == 0.0
        assert heat[2] == pytest.approx(3.0 * heat[1])


class TestFan:
    def test_off_zero_power(self):
        assert _fan(VAVConfig(), [0, 0, 0]) == 0.0

    def test_full_flow_max_power(self):
        cfg = VAVConfig(fan_power_max_w=400.0)
        assert _fan(cfg, [3, 3]) == pytest.approx(800.0)

    def test_cube_law_at_half_flow(self):
        cfg = VAVConfig(flow_levels_kg_s=(0.0, 0.2, 0.4), fan_power_max_w=400.0)
        assert _fan(cfg, [1]) == pytest.approx(400.0 * 0.5**3)

    def test_part_load_much_cheaper_than_linear(self):
        third = _fan(VAVConfig(), [1])
        full = _fan(VAVConfig(), [3])
        assert third < full / 3.0  # cube law beats linear scaling


class TestCoil:
    def test_off_zero(self):
        assert _plant(VAVConfig(), [0], [25.0], 30.0)[1] == 0.0

    def test_hotter_outdoor_costs_more(self):
        mild = _coil(VAVConfig(), [3], [25.0], 25.0)
        hot = _coil(VAVConfig(), [3], [25.0], 38.0)
        assert hot > mild

    def test_free_cooling_when_mixed_air_cold(self):
        cfg = VAVConfig(outdoor_air_fraction=1.0)  # all outdoor air
        # 10 C outdoor air is below 12.8 C supply: only the fan draws power.
        assert _plant(cfg, [3], [25.0], 10.0)[1] == _fan(cfg, [3])

    def test_cop_divides_load(self):
        low = _coil(VAVConfig(cop=2.0), [3], [26.0], 32.0)
        high = _coil(VAVConfig(cop=4.0), [3], [26.0], 32.0)
        assert low == pytest.approx(2.0 * high)

    def test_return_temp_flow_weighted(self):
        cfg = VAVConfig(outdoor_air_fraction=0.0)
        # Zone 1 at level 3 dominates the return stream over zone 0 at 1.
        hot_dominant = _coil(cfg, [1, 3], [20.0, 30.0], 25.0)
        cold_dominant = _coil(cfg, [3, 1], [20.0, 30.0], 25.0)
        assert hot_dominant > cold_dominant


class TestElectricTotal:
    def test_sum_of_parts(self):
        cfg = VAVConfig()
        temps = np.array([26.0, 27.0])
        flows = np.array([cfg.flow_levels_kg_s[2], cfg.flow_levels_kg_s[3]])
        fan = cfg.fan_power_max_w * 2 * (flows.sum() / (2 * cfg.max_flow_kg_s)) ** 3
        oaf = cfg.outdoor_air_fraction
        mixed = (1 - oaf) * (flows @ temps / flows.sum()) + oaf * 33.0
        coil = flows.sum() * AIR_CP_J_PER_KG_K * (mixed - cfg.supply_temp_c) / cfg.cop
        total = _plant(cfg, [2, 3], temps, 33.0)[1]
        assert total == pytest.approx(fan + coil)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
        st.floats(min_value=15.0, max_value=35.0),
        st.floats(min_value=-5.0, max_value=45.0),
    )
    def test_property_power_non_negative(self, levels, zone_t, out_t):
        power = _plant(VAVConfig(), levels, [zone_t, zone_t], out_t)[1]
        assert power >= 0.0

    def test_rejects_bad_zone_count(self):
        with pytest.raises(ValueError, match="n_zones"):
            VAVSystem(VAVConfig(), 0)


class TestLevelValidation:
    """Levels are validated where actions enter: the env's step."""

    def test_level_bounds_checked(self, single_zone_env):
        single_zone_env.reset()
        with pytest.raises(ValueError, match="not in"):
            single_zone_env.step([4])

    def test_shape_checked(self, four_zone_env):
        four_zone_env.reset()
        with pytest.raises(ValueError, match="not in"):
            four_zone_env.step([1])
