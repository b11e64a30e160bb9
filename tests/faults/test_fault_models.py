"""Unit tests for the concrete fault models.

Hooks take fleet rows and a padded fleet matrix; a one-env injector
faults ``obs[None]``, a one-row view of a single observation, in place.
"""

import numpy as np
import pytest

from repro.faults import (
    ActuatorFault,
    FaultInjector,
    ForecastFault,
    ObsLayout,
    OccupancyFault,
    SensorNoise,
    StuckSensor,
    fault_stream,
)

LAYOUT = ObsLayout(n_zones=2, horizon=3, n_levels=4)
ROW = np.array([0])  # the one row of a one-env injector


def make_injector(*models, n_envs=1, layout=LAYOUT, seed=0):
    return FaultInjector(
        list(models),
        [layout] * n_envs,
        [fault_stream(seed + k) for k in range(n_envs)],
    )


def fresh_obs(layout=LAYOUT, fill=0.5):
    return np.full(layout.obs_dim, fill)


class TestObsLayout:
    def test_slices_tile_the_vector(self):
        lay = LAYOUT
        covered = (
            [0, 1, 2]
            + list(range(lay.occupied.start, lay.occupied.stop))
            + list(range(lay.temps.start, lay.temps.stop))
            + [lay.temp_out, lay.ghi, lay.price]
            + list(range(lay.forecast_temp.start, lay.forecast_temp.stop))
            + list(range(lay.forecast_ghi.start, lay.forecast_ghi.stop))
        )
        assert sorted(covered) == list(range(lay.obs_dim))

    def test_matches_real_env_obs_names(self, four_zone_env):
        lay = ObsLayout.from_env(four_zone_env)
        names = four_zone_env.obs_names
        assert names[lay.temps][0].startswith("temp_")
        assert all(n.startswith("occupied_") for n in names[lay.occupied])
        assert names[lay.temp_out] == "temp_out"
        assert names[lay.ghi] == "ghi"
        assert names[lay.price] == "price"
        assert all(
            n.startswith("forecast_temp_out_") for n in names[lay.forecast_temp]
        )
        assert all(n.startswith("forecast_ghi_") for n in names[lay.forecast_ghi])

    def test_sensed_temps_round_trip(self):
        obs = fresh_obs()
        obs[LAYOUT.temps] = np.array([0.1, -0.2])
        temps = LAYOUT.sensed_temps_c(obs)
        np.testing.assert_allclose(temps, [24.0, 21.0])


class TestSensorNoise:
    def test_bias_is_deterministic(self):
        inj = make_injector(SensorNoise(temp_bias_c=2.0))
        obs = fresh_obs()
        before = obs.copy()
        inj.apply_reset_obs(ROW, obs[None])
        np.testing.assert_allclose(obs[LAYOUT.temps], before[LAYOUT.temps] + 0.2)
        # Everything else untouched.
        mask = np.ones(LAYOUT.obs_dim, dtype=bool)
        mask[LAYOUT.temps] = False
        np.testing.assert_array_equal(obs[mask], before[mask])

    def test_noise_draws_from_fault_stream(self):
        a = make_injector(SensorNoise(temp_std_c=0.5), seed=1)
        b = make_injector(SensorNoise(temp_std_c=0.5), seed=1)
        obs_a, obs_b = fresh_obs(), fresh_obs()
        a.apply_reset_obs(ROW, obs_a[None])
        b.apply_reset_obs(ROW, obs_b[None])
        np.testing.assert_array_equal(obs_a, obs_b)
        c = make_injector(SensorNoise(temp_std_c=0.5), seed=2)
        obs_c = fresh_obs()
        c.apply_reset_obs(ROW, obs_c[None])
        assert not np.array_equal(obs_a[LAYOUT.temps], obs_c[LAYOUT.temps])

    def test_ghi_noise_never_negative(self):
        inj = make_injector(SensorNoise(ghi_rel_std=5.0))
        for _ in range(50):
            obs = fresh_obs()
            inj.apply_step_obs(ROW, obs[None])
            assert obs[LAYOUT.ghi] >= 0.0

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            SensorNoise(temp_std_c=-1.0)


class TestStuckSensor:
    def test_hold_latches_value_at_onset(self):
        inj = make_injector(StuckSensor(zone=1, start_step=2, mode="hold"))
        idx = LAYOUT.temps.start + 1
        obs = fresh_obs(fill=0.0)
        inj.apply_reset_obs(ROW, obs[None])  # step 0: healthy
        assert obs[idx] == 0.0
        obs = fresh_obs(fill=0.1)
        inj.apply_step_obs(ROW, obs[None])  # step 1: healthy
        assert obs[idx] == pytest.approx(0.1)
        obs = fresh_obs(fill=0.2)
        inj.apply_step_obs(ROW, obs[None])  # step 2: latches 0.2
        assert obs[idx] == pytest.approx(0.2)
        obs = fresh_obs(fill=0.9)
        inj.apply_step_obs(ROW, obs[None])  # step 3: still reads the latch
        assert obs[idx] == pytest.approx(0.2)
        # Only the faulted channel is pinned.
        assert obs[LAYOUT.temps.start] == pytest.approx(0.9)

    def test_latch_clears_on_reset(self):
        inj = make_injector(StuckSensor(zone=0, start_step=0, mode="hold"))
        idx = LAYOUT.temps.start
        obs = fresh_obs(fill=0.3)
        inj.apply_reset_obs(ROW, obs[None])
        assert obs[idx] == pytest.approx(0.3)
        inj.on_reset(ROW)
        obs = fresh_obs(fill=0.7)
        inj.apply_reset_obs(ROW, obs[None])
        assert obs[idx] == pytest.approx(0.7)  # fresh latch, new episode

    def test_drop_reads_zero_inside_window_only(self):
        inj = make_injector(
            StuckSensor(channel="temp_out", start_step=1, duration_steps=2, mode="drop")
        )
        obs = fresh_obs()
        inj.apply_reset_obs(ROW, obs[None])
        assert obs[LAYOUT.temp_out] == pytest.approx(0.5)  # step 0: healthy
        for step, expected in ((1, 0.0), (2, 0.0), (3, 0.5)):
            obs = fresh_obs()
            inj.apply_step_obs(ROW, obs[None])
            assert obs[LAYOUT.temp_out] == pytest.approx(expected), step

    def test_out_of_range_zone_is_inert(self):
        inj = make_injector(StuckSensor(zone=7, start_step=0, mode="drop"))
        obs = fresh_obs()
        before = obs.copy()
        inj.apply_reset_obs(ROW, obs[None])
        np.testing.assert_array_equal(obs, before)

    def test_validation(self):
        with pytest.raises(ValueError, match="channel"):
            StuckSensor(channel="humidity")
        with pytest.raises(ValueError, match="mode"):
            StuckSensor(mode="flicker")
        with pytest.raises(ValueError):
            StuckSensor(start_step=-1)


class TestActuatorFault:
    def test_stuck_zone_pins_one_level(self):
        inj = make_injector(ActuatorFault(zone=0, mode="stuck", stuck_level=3))
        levels = inj.apply_action(ROW, np.array([[1, 2]]))[0]
        np.testing.assert_array_equal(levels, [3, 2])

    def test_stuck_all_zones(self):
        inj = make_injector(ActuatorFault(mode="stuck", stuck_level=0))
        levels = inj.apply_action(ROW, np.array([[3, 2]]))[0]
        np.testing.assert_array_equal(levels, [0, 0])

    def test_degraded_caps_levels(self):
        inj = make_injector(ActuatorFault(mode="degraded", capacity_factor=0.5))
        levels = inj.apply_action(ROW, np.array([[3, 1]]))[0]
        # floor(0.5 * 3) = 1
        np.testing.assert_array_equal(levels, [1, 1])

    def test_window_bounds_the_fault(self):
        inj = make_injector(
            ActuatorFault(mode="stuck", stuck_level=0, start_step=1, duration_steps=1)
        )
        np.testing.assert_array_equal(
            inj.apply_action(ROW, np.array([[2, 2]]))[0], [2, 2]
        )  # step 0
        inj.apply_step_obs(ROW, fresh_obs()[None])  # now at step 1
        np.testing.assert_array_equal(inj.apply_action(ROW, np.array([[2, 2]]))[0], [0, 0])
        inj.apply_step_obs(ROW, fresh_obs()[None])  # now at step 2: window over
        np.testing.assert_array_equal(inj.apply_action(ROW, np.array([[2, 2]]))[0], [2, 2])

    def test_input_never_mutated(self):
        inj = make_injector(ActuatorFault(mode="stuck", stuck_level=0))
        original = np.array([[3, 3]])
        inj.apply_action(ROW, original)
        np.testing.assert_array_equal(original, [[3, 3]])

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ActuatorFault(mode="explode")
        with pytest.raises(ValueError):
            ActuatorFault(capacity_factor=1.5)


class TestForecastFault:
    def test_bias_shifts_forecast_channels_only(self):
        inj = make_injector(ForecastFault(temp_bias_c=3.0))
        obs = fresh_obs()
        before = obs.copy()
        inj.apply_reset_obs(ROW, obs[None])
        np.testing.assert_allclose(
            obs[LAYOUT.forecast_temp], before[LAYOUT.forecast_temp] + 3.0 / 15.0
        )
        assert obs[LAYOUT.temp_out] == before[LAYOUT.temp_out]

    def test_inert_without_forecast_horizon(self):
        layout = ObsLayout(n_zones=1, horizon=0, n_levels=4)
        inj = make_injector(
            ForecastFault(temp_bias_c=3.0, temp_std_c=1.0), layout=layout
        )
        obs = np.full(layout.obs_dim, 0.5)
        before = obs.copy()
        inj.apply_reset_obs(ROW, obs[None])
        np.testing.assert_array_equal(obs, before)

    def test_ghi_rel_bias(self):
        inj = make_injector(ForecastFault(ghi_rel_bias=-0.5))
        obs = fresh_obs()
        inj.apply_reset_obs(ROW, obs[None])
        np.testing.assert_allclose(obs[LAYOUT.forecast_ghi], 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ForecastFault(ghi_rel_bias=-2.0)


class TestOccupancyFault:
    def test_surprise_window_inverts_flags(self):
        inj = make_injector(
            OccupancyFault(surprise_start=1, surprise_duration=1)
        )
        obs = fresh_obs()
        obs[LAYOUT.occupied] = [1.0, 0.0]
        inj.apply_reset_obs(ROW, obs[None])
        np.testing.assert_array_equal(obs[LAYOUT.occupied], [1.0, 0.0])
        obs[LAYOUT.occupied] = [1.0, 0.0]
        inj.apply_step_obs(ROW, obs[None])  # step 1: inverted
        np.testing.assert_array_equal(obs[LAYOUT.occupied], [0.0, 1.0])
        obs[LAYOUT.occupied] = [1.0, 0.0]
        inj.apply_step_obs(ROW, obs[None])  # step 2: healthy again
        np.testing.assert_array_equal(obs[LAYOUT.occupied], [1.0, 0.0])

    def test_flip_probability_zero_is_inert(self):
        inj = make_injector(OccupancyFault(p_flip=0.0))
        obs = fresh_obs()
        before = obs.copy()
        inj.apply_reset_obs(ROW, obs[None])
        np.testing.assert_array_equal(obs, before)

    def test_flip_probability_one_always_flips(self):
        inj = make_injector(OccupancyFault(p_flip=1.0))
        obs = fresh_obs()
        obs[LAYOUT.occupied] = [1.0, 0.0]
        inj.apply_reset_obs(ROW, obs[None])
        np.testing.assert_array_equal(obs[LAYOUT.occupied], [0.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            OccupancyFault(p_flip=1.5)


class TestInjector:
    def test_composition_applies_in_order(self):
        # Bias first, then a hold latch: the latch captures the biased value.
        inj = make_injector(
            SensorNoise(temp_bias_c=2.0),
            StuckSensor(zone=0, start_step=0, mode="hold"),
        )
        idx = LAYOUT.temps.start
        obs = fresh_obs(fill=0.0)
        inj.apply_reset_obs(ROW, obs[None])
        assert obs[idx] == pytest.approx(0.2)  # biased then latched
        obs = fresh_obs(fill=0.5)
        inj.apply_step_obs(ROW, obs[None])
        assert obs[idx] == pytest.approx(0.2)  # latch wins over new bias

    def test_action_clipped_into_range(self):
        inj = make_injector(ActuatorFault(mode="stuck", stuck_level=99))
        levels = inj.apply_action(ROW, np.array([[0, 0]]))[0]
        assert np.all(levels <= LAYOUT.n_levels - 1)

    def test_needs_at_least_one_model(self):
        with pytest.raises(ValueError):
            make_injector()

    def test_describe_lines(self):
        from repro.faults import get_fault_profile

        for name in ("noisy-sensors", "stuck-damper", "compound-degraded"):
            lines = get_fault_profile(name).describe_faults()
            assert lines and all(isinstance(line, str) and line for line in lines)


class TestMixedLayoutBlocks:
    """One injector over rows of two layouts: the injector hands each
    model one block per layout, and every row comes out exactly as a
    one-row injector of its own layout and seed faults it."""

    ONE = ObsLayout(n_zones=1, horizon=0, n_levels=4)
    FIVE = ObsLayout(n_zones=5, horizon=3, n_levels=3)
    LAYOUTS = [ONE, FIVE, ONE, FIVE]
    SEEDS = [3, 4, 5, 6]
    N_STEPS = 6

    def _inputs(self, layouts):
        """Per-step padded observations and levels (reset obs first)."""
        rng = np.random.default_rng(8)
        width = max(lay.obs_dim for lay in layouts)
        zones = max(lay.n_zones for lay in layouts)
        obs = np.zeros((self.N_STEPS + 1, len(layouts), width))
        levels = np.zeros((self.N_STEPS, len(layouts), zones), dtype=np.int64)
        for k, lay in enumerate(layouts):
            obs[:, k, : lay.obs_dim] = rng.uniform(size=(self.N_STEPS + 1, lay.obs_dim))
            obs[:, k, lay.occupied] = rng.integers(0, 2, size=(self.N_STEPS + 1, lay.n_zones))
            levels[:, k, : lay.n_zones] = rng.integers(
                0, lay.n_levels, size=(self.N_STEPS, lay.n_zones)
            )
        return obs, levels

    def _run(self, model, layouts, seeds, obs, levels):
        """Reset, then alternate action and step-observation hooks."""
        inj = FaultInjector([model], layouts, [fault_stream(s) for s in seeds])
        rows = np.arange(len(layouts))
        obs = obs.copy()
        applied = np.empty_like(levels)
        inj.on_reset(rows)
        inj.apply_reset_obs(rows, obs[0])
        for t in range(self.N_STEPS):
            applied[t] = inj.apply_action(rows, levels[t])
            inj.apply_step_obs(rows, obs[t + 1])
        return obs, applied

    @pytest.mark.parametrize(
        "model",
        [
            SensorNoise(temp_std_c=0.5, temp_bias_c=0.2, out_std_c=1.0, ghi_rel_std=0.1),
            StuckSensor(zone=3, start_step=2, mode="hold"),
            ActuatorFault(zone=3, mode="stuck", stuck_level=2, start_step=1),
            ActuatorFault(mode="degraded", capacity_factor=0.5, duration_steps=4),
            ForecastFault(temp_bias_c=3.0, temp_std_c=1.0, ghi_rel_bias=-0.5),
            OccupancyFault(p_flip=0.3, surprise_start=2, surprise_duration=2),
        ],
        ids=lambda m: m.kind,
    )
    def test_rows_match_one_row_injectors(self, model):
        obs, levels = self._inputs(self.LAYOUTS)
        mixed_obs, mixed_levels = self._run(model, self.LAYOUTS, self.SEEDS, obs, levels)
        for k, (lay, seed) in enumerate(zip(self.LAYOUTS, self.SEEDS)):
            d, m = lay.obs_dim, lay.n_zones
            one_obs, one_levels = self._run(
                model, [lay], [seed], obs[:, k : k + 1, :d], levels[:, k : k + 1, :m]
            )
            assert mixed_obs[:, k, :d].tobytes() == one_obs[:, 0].tobytes(), k
            assert mixed_levels[:, k, :m].tobytes() == one_levels[:, 0].tobytes(), k
            # Padding stays untouched.
            assert not mixed_obs[:, k, d:].any() and not mixed_levels[:, k, m:].any()

    def test_zone_faults_are_inert_on_single_zone_rows(self):
        obs, levels = self._inputs(self.LAYOUTS)
        one_zone = [0, 2]
        for model in (
            StuckSensor(zone=3, start_step=0, mode="drop"),
            ActuatorFault(zone=3, mode="stuck", stuck_level=0),
        ):
            out_obs, out_levels = self._run(model, self.LAYOUTS, self.SEEDS, obs, levels)
            np.testing.assert_array_equal(out_obs[:, one_zone], obs[:, one_zone])
            np.testing.assert_array_equal(out_levels[:, one_zone], levels[:, one_zone])
        # ... while the five-zone rows' zone 3 is faulted.
        assert not out_levels[:, [1, 3], 3].any()
        assert levels[:, [1, 3], 3].any()

    def test_forecast_fault_is_inert_on_horizon_zero_rows(self):
        obs, levels = self._inputs(self.LAYOUTS)
        model = ForecastFault(temp_bias_c=3.0, temp_std_c=1.0, ghi_rel_bias=-0.5)
        out_obs, _ = self._run(model, self.LAYOUTS, self.SEEDS, obs, levels)
        np.testing.assert_array_equal(out_obs[:, [0, 2]], obs[:, [0, 2]])
        assert not np.array_equal(out_obs[:, [1, 3]], obs[:, [1, 3]])
