"""Synthetic extreme-weather events for robustness experiments.

A controller trained on typical weather must not fall apart in an
atypical week — the generalization question any deployed HVAC RL agent
faces.  :func:`inject_heat_wave` superimposes a smooth multi-day
temperature anomaly (with an optional clear-sky boost) onto an existing
trace, producing the out-of-distribution evaluation weather used by
experiment E11.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive
from repro.weather.series import SECONDS_PER_DAY, WeatherSeries
from repro.weather.solar import clear_sky_row


def inject_heat_wave(
    series: WeatherSeries,
    *,
    start_day: int,
    n_days: float,
    peak_amplitude_c: float = 6.0,
    ghi_boost: float = 1.1,
    latitude_deg: float = 40.0,
) -> WeatherSeries:
    """Return a copy of ``series`` with a heat wave superimposed.

    Parameters
    ----------
    start_day:
        Day offset into the trace (0 = first day) where the wave begins.
    n_days:
        Duration of the wave; the anomaly ramps up and down as a raised
        half-sine, peaking mid-wave.
    peak_amplitude_c:
        Temperature anomaly at the peak of the wave.
    ghi_boost:
        Multiplier on irradiance during the wave (heat waves are usually
        cloudless).  Boosted samples are capped at the clear-sky GHI for
        the sun's position at ``latitude_deg`` — the physically plausible
        ceiling — and the cap never pushes a sample below its unboosted
        value.  The ceiling is read from the memoized clear-sky row of the
        series' clock (:func:`~repro.weather.solar.clear_sky_row`), the
        same row :func:`~repro.weather.synthetic.generate_weather` built
        the trace from when the latitudes agree.
    latitude_deg:
        Site latitude used for the clear-sky cap; pass the generating
        climate's ``latitude_deg`` (the default is the synthetic
        generator's default site).
    """
    check_positive("n_days", n_days)
    check_positive("peak_amplitude_c", peak_amplitude_c, strict=False)
    check_positive("ghi_boost", ghi_boost)
    if not -90.0 <= latitude_deg <= 90.0:
        raise ValueError(f"latitude_deg must be in [-90, 90], got {latitude_deg}")
    if start_day < 0:
        raise ValueError(f"start_day must be >= 0, got {start_day}")
    steps_per_day = SECONDS_PER_DAY / series.dt_seconds
    start = int(round(start_day * steps_per_day))
    length = int(round(n_days * steps_per_day))
    if start >= len(series):
        raise ValueError(
            f"heat wave starts at step {start}, beyond trace of {len(series)}"
        )
    stop = min(start + length, len(series))

    temp = series.temp_out_c.copy()
    ghi = series.ghi_w_m2.copy()
    phase = np.linspace(0.0, np.pi, stop - start)
    anomaly = peak_amplitude_c * np.sin(phase)
    temp[start:stop] += anomaly
    boosted = ghi[start:stop] * (1.0 + (ghi_boost - 1.0) * np.sin(phase))
    ceiling = clear_sky_row(
        latitude_deg, series.start_day_of_year, len(series), series.dt_seconds
    )[start:stop]
    # The cap binds the *boost*, not the underlying trace: a sample that
    # already exceeded the model ceiling is never pushed below its
    # original value (and a sub-unity boost still dims freely).
    ghi[start:stop] = np.minimum(boosted, np.maximum(ceiling, ghi[start:stop]))

    return WeatherSeries(
        dt_seconds=series.dt_seconds,
        start_day_of_year=series.start_day_of_year,
        temp_out_c=temp,
        ghi_w_m2=ghi,
    )
