"""The one observation path: layout, time tables, encoder.

The scalar env, the fleet, MPC and the fault layer all read the
observation through :mod:`repro.env.observation`; these tests pin the
layout against the env's channel names and sensors, and the one-row
(scalar) and many-row (fleet) uses of the tables and the encoder
against each other.
"""

import numpy as np
import pytest

from repro.baselines import MPCController
from repro.env.observation import ObsLayout, time_tables
from repro.sim import VectorHVACEnv
from repro.sim.scenarios import build_fleet, get_scenario, list_scenarios


@pytest.fixture(params=list_scenarios())
def preset_env(request):
    return get_scenario(request.param).build(0)


class TestLayout:
    def test_temps_and_price_channels_by_name(self, preset_env):
        lay = ObsLayout.from_env(preset_env)
        names = np.array(preset_env.obs_names)
        assert len(names) == lay.obs_dim == preset_env.obs_dim
        expected = [f"temp_{z}" for z in preset_env.building.zone_names]
        assert names[lay.temps].tolist() == expected
        assert names[lay.price] == "price"

    def test_sensed_temps_match_zone_temps(self, preset_env):
        obs = preset_env.reset()
        lay = ObsLayout.from_env(preset_env)
        # The observation scaling does not round-trip exactly.
        np.testing.assert_allclose(
            lay.sensed_temps_c(obs), preset_env.zone_temps_c, rtol=1e-12
        )

    def test_columns_in_a_wider_layout(self):
        narrow = ObsLayout(1, 2, 4)
        wide = ObsLayout(3, 5, 4)
        cols = narrow.columns_in(wide)
        assert len(cols) == narrow.obs_dim
        assert cols[narrow.temps].tolist() == [wide.temps.start]
        assert cols[narrow.price] == wide.price
        assert cols[narrow.forecast_ghi].tolist() == [
            wide.forecast_ghi.start, wide.forecast_ghi.start + 1
        ]
        np.testing.assert_array_equal(wide.columns_in(wide), np.arange(wide.obs_dim))


class TestTimeTables:
    def test_scalar_tables_are_the_fleet_rows(self):
        """An env's one-row tables equal its row of a fleet's tables."""
        envs = build_fleet(get_scenario("five-zone-office"), [0, 1])
        envs[1] = get_scenario("baseline-tou").build(1)
        fleet = time_tables(envs)
        for k, env in enumerate(envs):
            own = env._tables
            t, z = len(env.weather), env.building.n_zones
            for name in ("clock", "exo", "day", "hour"):
                np.testing.assert_array_equal(getattr(own, name)[0], getattr(fleet, name)[k, :t])
            for name in ("occupied", "gains"):
                np.testing.assert_array_equal(
                    getattr(own, name)[0], getattr(fleet, name)[k, :t, :z]
                )
            assert own.last[0] == fleet.last[k]

    def test_fleet_builds_no_per_env_tables(self):
        envs = build_fleet(get_scenario("baseline-tou"), [0, 1])
        vec = VectorHVACEnv(envs)
        vec.reset()
        vec.step(np.ones((2, 1), dtype=int))
        assert all("_fleet" not in vars(env) for env in envs)

    def test_mpc_plans_on_the_table_rows(self, single_zone_env):
        """MPC's lookahead reads the per-sample truth, last sample held."""
        env = single_zone_env
        mpc = MPCController(env, horizon=4)
        env.reset()
        env.load_state_dict({**env.state_dict(), "index": len(env.weather) - 2})
        inputs = mpc._plan_inputs()
        idx = [len(env.weather) - 2] + [len(env.weather) - 1] * 3
        days = [env.weather.day_of_year(i) for i in idx]
        hours = [env.weather.hour_of_day(i) for i in idx]
        sched = env.building.schedules[0]
        np.testing.assert_array_equal(inputs["temp_out"], env.weather.temp_out_c[idx])
        np.testing.assert_array_equal(inputs["ghi"], env.weather.ghi_w_m2[idx])
        assert inputs["price"].tolist() == [
            env.tariff.price_per_kwh(d, h) for d, h in zip(days, hours)
        ]
        assert inputs["occupied"].tolist() == [
            sched.occupied(d, h) for d, h in zip(days, hours)
        ]


class TestEncoder:
    def test_step_info_reads_the_tables(self, four_zone_env):
        env = four_zone_env
        env.reset()
        i = env.time_index
        _, _, _, info = env.step(np.ones(4, dtype=int))
        day, hour = env.weather.day_of_year(i), env.weather.hour_of_day(i)
        assert info["day_of_year"] == day and type(info["day_of_year"]) is int
        assert info["hour_of_day"] == hour and type(info["hour_of_day"]) is float
        assert info["price_per_kwh"] == env.tariff.price_per_kwh(day, hour)
        assert info["occupied"].tolist() == [
            s.occupied(day, hour) for s in env.building.schedules
        ]

    def test_obs_channels_are_the_scaled_inputs(self, four_zone_env):
        env = four_zone_env
        obs = env.reset()
        lay, i = env.layout, env.time_index
        hour = env.weather.hour_of_day(i)
        assert obs[0] == np.sin(2.0 * np.pi * hour / 24.0)
        assert obs[lay.temp_out] == (env.weather.temp_out_c[i] - 20.0) / 15.0
        assert obs[lay.ghi] == env.weather.ghi_w_m2[i] / 1000.0
        price = env.tariff.price_per_kwh(env.weather.day_of_year(i), hour)
        assert obs[lay.price] == price / 0.30
