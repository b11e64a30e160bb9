"""The control-step kernel: pricing, the reward split, candidate rows and
the buildings it can step."""

import copy

import numpy as np
import pytest

from repro.building import Building, OfficeSchedule, ZoneConfig
from repro.env import HVACEnv
from repro.env.kernel import outcome, step_columns
from repro.hvac import FlatTariff
from repro.sim import BatchRCNetwork


def _step_candidates(env, levels):
    """The kernel's step of each ``levels`` row from ``env``'s state."""
    rows, _ = env._step_rows(levels)
    return rows


def _office_building(n_zones: int = 1, *, isolated: bool = False) -> Building:
    """``n_zones`` identical office zones; ``isolated`` cuts the last
    one off from ambient (no envelope, no neighbours)."""
    zones = [ZoneConfig(f"z{i}", 3.6e6, 130.0, 3.0, 100.0) for i in range(n_zones)]
    if isolated:
        zones[-1] = ZoneConfig(f"z{n_zones - 1}", 3.6e6, 0.0, 3.0, 100.0)
    ua = np.zeros((n_zones, n_zones))
    return Building(zones, ua, [OfficeSchedule()] * n_zones)


class TestOutcome:
    def test_energy_cost(self, summer_weather):
        env = HVACEnv(
            _office_building(), summer_weather, tariff=FlatTariff(rate_per_kwh=0.10)
        )
        flows = np.ones((1, 1))
        # 1 kW for 1 hour = 1 kWh = $0.10.
        out = outcome(
            env._cols, np.full((1, 1), 24.0), True, flows, np.array([1000.0]),
            0.10, 3600.0,
        )
        assert out.energy_kwh[0] == pytest.approx(1.0)
        assert out.cost_usd[0] == pytest.approx(0.10)

    def test_reward_split_sums_to_reward(self, four_zone_env):
        four_zone_env.reset()
        rng = np.random.default_rng(3)
        levels = np.stack([four_zone_env.action_space.sample(rng) for _ in range(64)])
        levels[0] = 0  # plant off: cost splits equally
        out = _step_candidates(four_zone_env, levels).outcome
        np.testing.assert_allclose(
            out.reward_per_zone.sum(axis=1), out.reward, rtol=1e-12, atol=1e-15
        )

    def test_cost_split_follows_airflow(self, four_zone_env):
        four_zone_env.reset()
        out = _step_candidates(four_zone_env, np.array([[0, 1, 2, 3]])).outcome
        comfort = out.violations[0] * four_zone_env.weather.dt_seconds / 3600.0
        cost_part = out.reward_per_zone[0] + comfort  # comfort_weight = 1
        assert cost_part[0] == 0.0
        np.testing.assert_allclose(cost_part[1:] / cost_part[1], [1.0, 2.0, 3.0])

    def test_padded_zones_report_nothing(self, summer_weather):
        one = HVACEnv(_office_building(), summer_weather)
        two = HVACEnv(_office_building(2), summer_weather)
        cols = step_columns([one, two])
        assert cols.zone_mask.tolist() == [[True, False], [True, True]]
        out = outcome(
            cols, np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), np.zeros((2, 2)),
            np.zeros(2), 0.1, 900.0,
        )
        assert out.violations[0, 1] == 0.0 and out.violations[1, 1] > 0.0


class TestCandidateRows:
    def test_rows_equal_single_row_calls(self, four_zone_env):
        """One env's columns broadcast against many candidate rows; each
        row is byte-identical to stepping that candidate alone."""
        four_zone_env.reset()
        rng = np.random.default_rng(9)
        levels = np.stack([four_zone_env.action_space.sample(rng) for _ in range(32)])
        batch = _step_candidates(four_zone_env, levels)
        for k in range(len(levels)):
            alone = _step_candidates(four_zone_env, levels[k : k + 1])
            assert batch.new_temps[k].tobytes() == alone.new_temps[0].tobytes()
            assert batch.power_w[k] == alone.power_w[0]
            for got, want in zip(batch.outcome, alone.outcome):
                assert got[k].tobytes() == want[0].tobytes()

    def test_single_row_is_env_step(self, four_zone_env):
        four_zone_env.reset()
        levels = np.array([[3, 0, 1, 2]])
        row = _step_candidates(four_zone_env, levels)
        _, reward, _, info = copy.deepcopy(four_zone_env).step(levels[0])
        assert row.outcome.reward[0] == reward
        assert row.power_w[0] == info["power_w"]
        assert row.new_temps[0].tobytes() == info["temps_c"].tobytes()


class TestSingularBuildings:
    def test_hvac_env_rejects_ambient_isolated_zone(self, summer_weather):
        """The kernel steps with the exact propagator only; a building the
        fleet cannot batch is rejected by the scalar env too, with the
        same message."""
        building = _office_building(isolated=True)
        with pytest.raises(ValueError) as batch_err:
            BatchRCNetwork([building.network])
        with pytest.raises(ValueError, match="singular dynamics matrix") as env_err:
            HVACEnv(building, summer_weather)
        assert str(env_err.value) == str(batch_err.value)
