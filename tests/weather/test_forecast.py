"""Tests for forecast noise and the one forecast arithmetic.

:class:`ForecastProvider` draws the noise; the forecast itself is
:func:`repro.env.observation.forecast` over an env's time tables, the
function every fleet — and so every scalar env, a one-row fleet — calls.
"""

import numpy as np
import pytest

from repro.building import single_zone_building
from repro.env import HVACEnv, HVACEnvConfig
from repro.env.observation import forecast
from repro.weather import ForecastProvider, SyntheticWeatherConfig, generate_weather

@pytest.fixture(scope="module")
def weather():
    return generate_weather(
        SyntheticWeatherConfig(), start_day_of_year=200, n_days=2, rng=0
    )


@pytest.fixture(scope="module")
def tables(weather):
    env = HVACEnv(single_zone_building(), weather, config=HVACEnvConfig(episode_days=1.0))
    return env._tables


def one_forecast(tables, provider, index):
    """One row's forecast from ``index``, with a fresh draw."""
    temps, ghis = forecast(
        tables.exo[0], np.array([index]), tables.last, provider.scales[None],
        provider.draw_noise()[None],
    )
    return temps[0], ghis[0]


def exact(horizon):
    """A provider whose forecasts carry zero error."""
    return ForecastProvider(
        horizon=horizon, temp_noise_std_per_step=0.0, ghi_relative_noise_per_step=0.0, rng=0
    )


class TestPerfectForecast:
    def test_matches_truth(self, weather, tables):
        temps, ghis = one_forecast(tables, exact(4), 10)
        np.testing.assert_array_equal(temps, weather.temp_out_c[11:15])
        np.testing.assert_array_equal(ghis, weather.ghi_w_m2[11:15])

    def test_horizon_zero_empty(self, tables):
        temps, ghis = one_forecast(tables, exact(0), 0)
        assert temps.shape == (0,)
        assert ghis.shape == (0,)

    def test_persists_at_series_end(self, weather, tables):
        last = len(weather) - 1
        temps, ghis = one_forecast(tables, exact(3), last)
        np.testing.assert_array_equal(temps, np.full(3, weather.temp_out_c[last]))
        temps, _ = one_forecast(tables, exact(3), last - 1)
        np.testing.assert_array_equal(temps, weather.temp_out_c[[last, last, last]])


class TestNoisyForecast:
    def test_noise_grows_with_lead(self, weather, tables):
        fp = ForecastProvider(horizon=6, temp_noise_std_per_step=0.5, rng=0)
        errs_by_lead = np.zeros(6)
        n_trials = 300
        for i in range(n_trials):
            index = i % (len(weather) - 10)
            temps, _ = one_forecast(tables, fp, index)
            errs_by_lead += (temps - weather.temp_out_c[index + 1 : index + 7]) ** 2
        rmse = np.sqrt(errs_by_lead / n_trials)
        assert rmse[5] > rmse[0]

    def test_ghi_forecast_never_negative(self, weather, tables):
        fp = ForecastProvider(horizon=4, ghi_relative_noise_per_step=0.5, rng=1)
        for i in range(0, len(weather) - 5, 7):
            _, ghis = one_forecast(tables, fp, i)
            assert np.all(ghis >= 0.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            ForecastProvider(horizon=-1)

    def test_deterministic_with_seed(self, tables):
        a = one_forecast(tables, ForecastProvider(horizon=3, rng=7), 5)
        b = one_forecast(tables, ForecastProvider(horizon=3, rng=7), 5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_scales_follow_the_draw_order(self):
        fp = ForecastProvider(
            horizon=3, temp_noise_std_per_step=0.5, ghi_relative_noise_per_step=0.1
        )
        np.testing.assert_allclose(fp.scales, [0.5, 0.1, 1.0, 0.2, 1.5, 0.3])
        assert fp.draw_noise().shape == fp.scales.shape
