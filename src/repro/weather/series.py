"""Container for an evenly sampled weather trace."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.utils.validation import check_finite, check_positive

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_HOUR = 3_600.0


def clock_at(
    start_day_of_year: int, index: int, dt_seconds: float
) -> Tuple[int, float]:
    """``(day_of_year, hour_of_day)`` of sample ``index`` of a trace clock.

    Sample 0 is local midnight of ``start_day_of_year``; days wrap
    1..365.  Code that builds a whole trace's time-indexed values before
    a :class:`WeatherSeries` exists reads the clock here.
    """
    seconds = index * dt_seconds
    day = (start_day_of_year - 1 + int(seconds // SECONDS_PER_DAY)) % 365 + 1
    return day, (seconds % SECONDS_PER_DAY) / SECONDS_PER_HOUR


@dataclass(frozen=True)
class WeatherSeries:
    """An evenly sampled trace of the channels the HVAC controller observes.

    Attributes
    ----------
    dt_seconds:
        Sampling period (the HVAC control step, 900 s in the paper setup).
    start_day_of_year:
        Day of year (1..365) of the first sample; sample 0 is local
        midnight of that day.
    temp_out_c:
        Ambient dry-bulb temperature, °C.
    ghi_w_m2:
        Global horizontal irradiance, W/m².
    """

    dt_seconds: float
    start_day_of_year: int
    temp_out_c: np.ndarray
    ghi_w_m2: np.ndarray
    _length: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        check_positive("dt_seconds", self.dt_seconds)
        if not 1 <= int(self.start_day_of_year) <= 365:
            raise ValueError(
                f"start_day_of_year must be in [1, 365], got {self.start_day_of_year}"
            )
        temp = check_finite("temp_out_c", self.temp_out_c)
        ghi = check_finite("ghi_w_m2", self.ghi_w_m2)
        if temp.ndim != 1 or ghi.ndim != 1:
            raise ValueError("weather channels must be 1-D arrays")
        if temp.shape != ghi.shape:
            raise ValueError(
                f"channel length mismatch: temp {temp.shape} vs ghi {ghi.shape}"
            )
        if np.any(ghi < 0):
            raise ValueError("ghi_w_m2 must be non-negative")
        object.__setattr__(self, "temp_out_c", temp)
        object.__setattr__(self, "ghi_w_m2", ghi)
        object.__setattr__(self, "_length", int(temp.shape[0]))

    def __len__(self) -> int:
        return self._length

    # ------------------------------------------------------------ accessors
    def hour_of_day(self, index: int) -> float:
        """Local hour of day (0..24) of sample ``index`` (a per-sample
        reference for the ``hour`` rows of ``time_tables``)."""
        return clock_at(self.start_day_of_year, index, self.dt_seconds)[1]

    def day_of_year(self, index: int) -> int:
        """Day of year (1..365, wrapping) of sample ``index`` (a
        per-sample reference for the ``day`` rows of ``time_tables``)."""
        return clock_at(self.start_day_of_year, index, self.dt_seconds)[0]

    def slice(self, start: int, stop: int) -> "WeatherSeries":
        """Return samples ``[start, stop)`` as a new series.

        ``start`` must fall on a day boundary multiple of ``dt`` for
        ``hour_of_day`` to remain meaningful; we recompute the start day so
        clock alignment is preserved for any start index.
        """
        if not 0 <= start < stop <= len(self):
            raise ValueError(
                f"invalid slice [{start}, {stop}) for series of length {len(self)}"
            )
        offset_days = int(start * self.dt_seconds // SECONDS_PER_DAY)
        remainder = (start * self.dt_seconds) % SECONDS_PER_DAY
        if remainder != 0:
            raise ValueError("slice start must align to a day boundary")
        return WeatherSeries(
            dt_seconds=self.dt_seconds,
            start_day_of_year=(self.start_day_of_year - 1 + offset_days) % 365 + 1,
            temp_out_c=self.temp_out_c[start:stop].copy(),
            ghi_w_m2=self.ghi_w_m2[start:stop].copy(),
        )

    def stats(self) -> dict:
        """Summary statistics used in reports and tests."""
        return {
            "n_samples": len(self),
            "temp_mean_c": float(self.temp_out_c.mean()),
            "temp_min_c": float(self.temp_out_c.min()),
            "temp_max_c": float(self.temp_out_c.max()),
            "ghi_peak_w_m2": float(self.ghi_w_m2.max()),
            "ghi_daily_mean_w_m2": float(self.ghi_w_m2.mean()),
        }
