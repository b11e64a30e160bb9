"""Clear-sky solar geometry.

Implements the standard astronomical approximations used by building
simulators: Cooper's declination formula, the hour-angle model of solar
elevation, and a simple air-mass-attenuated clear-sky global horizontal
irradiance (GHI).  Accuracy targets are those relevant for HVAC control
(diurnal shape, seasonal amplitude), not ephemeris-grade positioning.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.weather.series import clock_at

# Extraterrestrial (top-of-atmosphere) solar constant, W/m^2.
SOLAR_CONSTANT = 1361.0

#: Distinct clocks whose seed-independent weather rows stay memoized.  A
#: fleet shares one clock, so a handful covers every workload; the bound
#: keeps long-lived processes that sweep many clocks from growing.
ROW_MEMO_SIZE = 16


def solar_declination_deg(day_of_year: float) -> float:
    """Solar declination angle in degrees (Cooper 1969).

    ``day_of_year`` runs 1..365; the declination swings ±23.45° over the
    year and is what gives summer its high sun path.
    """
    day = float(day_of_year)
    if not 1.0 <= day <= 366.0:
        raise ValueError(f"day_of_year must be in [1, 366], got {day}")
    return 23.45 * np.sin(np.deg2rad(360.0 * (284.0 + day) / 365.0))


def solar_elevation_deg(
    latitude_deg: float, day_of_year: float, hour_of_day: float
) -> float:
    """Solar elevation above the horizon, degrees (negative at night).

    Uses local solar time directly (no longitude/equation-of-time
    correction): for synthetic weather that offset is irrelevant.
    """
    if not -90.0 <= latitude_deg <= 90.0:
        raise ValueError(f"latitude must be in [-90, 90], got {latitude_deg}")
    if not 0.0 <= hour_of_day < 24.0:
        raise ValueError(f"hour_of_day must be in [0, 24), got {hour_of_day}")
    lat = np.deg2rad(latitude_deg)
    decl = np.deg2rad(solar_declination_deg(day_of_year))
    hour_angle = np.deg2rad(15.0 * (hour_of_day - 12.0))
    sin_elev = np.sin(lat) * np.sin(decl) + np.cos(lat) * np.cos(decl) * np.cos(hour_angle)
    return float(np.rad2deg(np.arcsin(np.clip(sin_elev, -1.0, 1.0))))


def clear_sky_ghi(elevation_deg: float) -> float:
    """Clear-sky global horizontal irradiance (W/m^2) for a sun elevation.

    A Haurwitz-style model: GHI rises with the sine of elevation and an
    exponential air-mass attenuation term.  Returns 0 when the sun is at
    or below the horizon.
    """
    if elevation_deg <= 0.0:
        return 0.0
    sin_elev = np.sin(np.deg2rad(elevation_deg))
    # Kasten-Young style relative air mass, stable near the horizon.
    air_mass = 1.0 / (sin_elev + 0.50572 * (elevation_deg + 6.07995) ** -1.6364)
    ghi = 0.84 * SOLAR_CONSTANT * sin_elev * np.exp(-0.13 * air_mass)
    return float(max(ghi, 0.0))


@functools.lru_cache(maxsize=ROW_MEMO_SIZE)
def clear_sky_row(
    latitude_deg: float, start_day_of_year: int, n_steps: int, dt_seconds: float
) -> np.ndarray:
    """Clear-sky GHI of every sample of a trace clock, W/m^2 (read-only).

    Sample ``i`` sits at ``i * dt_seconds`` after midnight of
    ``start_day_of_year``, the clock of
    :class:`~repro.weather.series.WeatherSeries`.  The row depends on the
    clock and the site alone, so it is computed once per key with the
    scalar functions above and shared by every trace on that clock.
    """
    row = np.empty(n_steps)
    for i in range(n_steps):
        day, hour = clock_at(start_day_of_year, i, dt_seconds)
        row[i] = clear_sky_ghi(solar_elevation_deg(latitude_deg, day, hour))
    row.flags.writeable = False
    return row
