"""Synthetic typical-meteorological-year generator.

Ambient temperature is modelled as a seasonal harmonic plus a diurnal
harmonic (lagged so the daily peak lands mid-afternoon) plus an AR(1)
stochastic residual.  Irradiance is clear-sky GHI from solar geometry,
attenuated by a slowly varying stochastic cloud factor.  The generator is
deterministic given a seed, so every experiment can pin its weather.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.utils.seeding import RandomState, ensure_rng
from repro.utils.validation import check_in_range, check_positive
from repro.weather.series import SECONDS_PER_DAY, WeatherSeries, clock_at
from repro.weather.solar import ROW_MEMO_SIZE, clear_sky_row


@dataclass(frozen=True)
class SyntheticWeatherConfig:
    """Knobs of the synthetic climate.

    Defaults approximate a hot-summer continental site (the paper's TMY3
    location class): ~28 °C mean with ~6 °C diurnal swing in August.
    """

    latitude_deg: float = 40.0
    annual_mean_c: float = 14.0
    seasonal_amplitude_c: float = 12.0
    diurnal_amplitude_c: float = 6.0
    peak_day_of_year: int = 200  # mid-July seasonal peak
    peak_hour_of_day: float = 15.0  # mid-afternoon diurnal peak
    noise_std_c: float = 1.0
    noise_ar1: float = 0.95
    cloud_mean: float = 0.85  # mean clear-sky fraction
    cloud_std: float = 0.15
    cloud_ar1: float = 0.98

    def __post_init__(self) -> None:
        check_in_range("latitude_deg", self.latitude_deg, -90.0, 90.0)
        check_positive("seasonal_amplitude_c", self.seasonal_amplitude_c, strict=False)
        check_positive("diurnal_amplitude_c", self.diurnal_amplitude_c, strict=False)
        check_in_range("peak_hour_of_day", self.peak_hour_of_day, 0.0, 24.0)
        check_positive("noise_std_c", self.noise_std_c, strict=False)
        check_in_range("noise_ar1", self.noise_ar1, 0.0, 1.0, inclusive=False)
        check_in_range("cloud_mean", self.cloud_mean, 0.0, 1.0)
        check_positive("cloud_std", self.cloud_std, strict=False)
        check_in_range("cloud_ar1", self.cloud_ar1, 0.0, 1.0, inclusive=False)


@functools.lru_cache(maxsize=ROW_MEMO_SIZE)
def _temperature_base(
    config: SyntheticWeatherConfig,
    start_day_of_year: int,
    n_steps: int,
    dt_seconds: float,
) -> np.ndarray:
    """Annual mean + seasonal + diurnal temperature per sample (read-only).

    The seed-independent part of the temperature channel, computed once
    per clock with scalar arithmetic; each trace adds its own AR(1)
    residual on top.
    """
    base = np.empty(n_steps)
    for i in range(n_steps):
        day, hour = clock_at(start_day_of_year, i, dt_seconds)
        seasonal = config.seasonal_amplitude_c * np.cos(
            2.0 * np.pi * (day - config.peak_day_of_year) / 365.0
        )
        diurnal = config.diurnal_amplitude_c * np.cos(
            2.0 * np.pi * (hour - config.peak_hour_of_day) / 24.0
        )
        base[i] = config.annual_mean_c + seasonal + diurnal
    base.flags.writeable = False
    return base


def generate_weather(
    config: SyntheticWeatherConfig,
    *,
    start_day_of_year: int,
    n_days: float,
    dt_seconds: float = 900.0,
    rng: RandomState | int | None = None,
) -> WeatherSeries:
    """Generate a :class:`WeatherSeries` of ``n_days`` starting at midnight.

    Everything except the two AR(1) residuals — the seasonal and diurnal
    temperature terms and the clear-sky GHI — depends only on ``config``
    and the clock ``(start_day_of_year, n_samples, dt_seconds)``.  That
    template is computed once per clock and memoized read-only (see
    :func:`~repro.weather.solar.clear_sky_row`), so a fleet of buildings
    sharing one clock pays the per-sample solar geometry once; each call
    then draws its ``2 * n_samples`` innovations in one block and runs
    the two recursions.

    Parameters
    ----------
    config:
        Climate parameters.
    start_day_of_year:
        First day of the trace (1..365); e.g. 213 ≈ August 1st.
    n_days:
        Length of the trace in days (fractions allowed).
    dt_seconds:
        Sampling period; 900 s matches the paper's 15-minute control step.
    rng:
        Seed or generator for the stochastic residuals.  A passed
        generator advances by exactly ``2 * n_samples`` standard normals.
    """
    check_positive("n_days", n_days)
    check_positive("dt_seconds", dt_seconds)
    rng = ensure_rng(rng)
    n_steps = int(round(n_days * SECONDS_PER_DAY / dt_seconds))
    if n_steps < 1:
        raise ValueError("trace must contain at least one sample")

    base = _temperature_base(config, start_day_of_year, n_steps, dt_seconds)
    clear_sky = clear_sky_row(
        config.latitude_deg, start_day_of_year, n_steps, dt_seconds
    )

    # AR(1) residuals: innovations scaled so the stationary std matches cfg.
    # Sample i's temperature innovation is draw 2i and its cloud innovation
    # draw 2i + 1; ``0.0 + std * z`` is exactly what ``rng.normal(0.0, std)``
    # returns for the standard normal ``z``.
    temp_innov_std = config.noise_std_c * np.sqrt(1.0 - config.noise_ar1**2)
    cloud_innov_std = config.cloud_std * np.sqrt(1.0 - config.cloud_ar1**2)
    draws = rng.standard_normal(2 * n_steps)
    temp_innov = (0.0 + temp_innov_std * draws[0::2]).tolist()
    cloud_innov = (0.0 + cloud_innov_std * draws[1::2]).tolist()

    noise_ar1 = config.noise_ar1
    cloud_ar1 = config.cloud_ar1
    cloud_pull = (1.0 - cloud_ar1) * config.cloud_mean
    temp_noise = 0.0
    cloud = config.cloud_mean
    noise = [0.0] * n_steps
    clouds = [0.0] * n_steps
    for i in range(n_steps):
        temp_noise = noise_ar1 * temp_noise + temp_innov[i]
        noise[i] = temp_noise
        cloud = cloud_ar1 * cloud + cloud_pull + cloud_innov[i]
        if cloud < 0.05:
            cloud = 0.05
        elif cloud > 1.0:
            cloud = 1.0
        clouds[i] = cloud

    return WeatherSeries(
        dt_seconds=dt_seconds,
        start_day_of_year=int(start_day_of_year),
        temp_out_c=base + np.array(noise),
        ghi_w_m2=np.array(clouds) * clear_sky,
    )


def summer_config() -> SyntheticWeatherConfig:
    """The default hot-summer climate used in the paper-shaped experiments."""
    return SyntheticWeatherConfig()


def mild_config() -> SyntheticWeatherConfig:
    """A mild climate variant for sensitivity experiments."""
    return SyntheticWeatherConfig(
        annual_mean_c=11.0,
        seasonal_amplitude_c=8.0,
        diurnal_amplitude_c=4.0,
    )
