"""The observation: one channel layout, forecast, encoder and set of time tables.

The DAC'17 state vector is built here and only here, for the scalar
:class:`~repro.env.hvac_env.HVACEnv` (one row) and the fleet
:class:`~repro.sim.vector_env.VectorHVACEnv` (one row per env) alike:
:class:`ObsLayout` places the channels, :func:`time_tables` precomputes
every time-indexed input (which the control step reads too),
:func:`forecast` adds noisy weather forecasts and :func:`encode` scales
gathered inputs into rows.  The scale constants keep every channel O(1)
for the Q-network; nothing outside this module reads them.  Like
:mod:`repro.env.kernel`, nothing here imports ``repro.env`` or
``repro.sim``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from repro.weather.series import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.weather.solar import ROW_MEMO_SIZE

#: Distinct (tariff or schedule, trace clock) rows that stay memoized: a
#: clock carries one tariff and a few schedules.
COMPONENT_ROW_MEMO_SIZE = 4 * ROW_MEMO_SIZE

TEMP_CENTER_C = 23.0
TEMP_SCALE_C = 10.0
OUT_CENTER_C = 20.0
OUT_SCALE_C = 15.0
GHI_SCALE = 1000.0
PRICE_SCALE = 0.30


# ------------------------------------------------------------------ layout
@dataclass(frozen=True)
class ObsLayout:
    """Channel indices of one env's observation vector: ``sin_hour,
    cos_hour, workday``, per-zone occupancy flags and temperatures,
    ``temp_out, ghi, price``, then ``horizon`` forecast temperatures and
    irradiances.  Also carries the action-level count, for actuator
    faults."""

    n_zones: int
    horizon: int
    n_levels: int

    @classmethod
    def from_env(cls, env) -> "ObsLayout":
        """The layout of an :class:`~repro.env.hvac_env.HVACEnv` (or a
        wrapper of one)."""
        return env.unwrapped().layout

    clock = slice(0, 3)

    # Offsets are cached on first use: the encoder reads them every step.
    @cached_property
    def obs_dim(self) -> int:
        return 6 + 2 * self.n_zones + 2 * self.horizon

    @cached_property
    def occupied(self) -> slice:
        return slice(3, 3 + self.n_zones)

    @cached_property
    def temps(self) -> slice:
        return slice(3 + self.n_zones, 3 + 2 * self.n_zones)

    @cached_property
    def temp_out(self) -> int:
        return 3 + 2 * self.n_zones

    @cached_property
    def ghi(self) -> int:
        return self.temp_out + 1

    @cached_property
    def price(self) -> int:
        return self.temp_out + 2

    @cached_property
    def forecast_temp(self) -> slice:
        start = self.temp_out + 3
        return slice(start, start + self.horizon)

    @cached_property
    def forecast_ghi(self) -> slice:
        start = self.temp_out + 3 + self.horizon
        return slice(start, start + self.horizon)

    def names(self, zone_names: Sequence[str]) -> List[str]:
        """Channel names, index-aligned with the vector."""
        leads = range(1, self.horizon + 1)
        return (
            ["sin_hour", "cos_hour", "workday"]
            + [f"occupied_{z}" for z in zone_names]
            + [f"temp_{z}" for z in zone_names]
            + ["temp_out", "ghi", "price"]
            + [f"forecast_temp_out_{k}" for k in leads]
            + [f"forecast_ghi_{k}" for k in leads]
        )

    def columns_in(self, wide: "ObsLayout") -> np.ndarray:
        """Where each of this layout's channels sits in ``wide``, a layout
        with at least as many zones and forecast leads."""
        z, h = self.n_zones, self.horizon
        starts = [0, wide.occupied.start, wide.temps.start, wide.temp_out,
                  wide.forecast_temp.start, wide.forecast_ghi.start]
        counts = [3, z, z, 3, h, h]
        return np.concatenate([s + np.arange(c) for s, c in zip(starts, counts)])

    @cached_property
    def scaling(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel ``(center, scale)``: a channel's observation is
        ``(raw - center) / scale`` (0 and 1 for the clock and occupancy)."""
        # Blocks: clock + occupancy, temps, temp_out, ghi, price, forecasts.
        counts = [3 + self.n_zones, self.n_zones, 1, 1, 1, self.horizon, self.horizon]
        center = [0.0, TEMP_CENTER_C, OUT_CENTER_C, 0.0, 0.0, OUT_CENTER_C, 0.0]
        scale = [1.0, TEMP_SCALE_C, OUT_SCALE_C, GHI_SCALE, PRICE_SCALE, OUT_SCALE_C, GHI_SCALE]
        return np.repeat(center, counts), np.repeat(scale, counts)

    def sensed_temps_c(self, obs_row: np.ndarray) -> np.ndarray:
        """Zone temperatures as a sensor reads them from ``obs_row`` (°C)."""
        return obs_to_temp_c(obs_row[self.temps])


def obs_to_temp_c(obs: np.ndarray) -> np.ndarray:
    """Zone-temperature channels of an observation, in °C."""
    return obs * TEMP_SCALE_C + TEMP_CENTER_C


def temp_to_obs(delta_c: np.ndarray | float) -> np.ndarray | float:
    """A zone-temperature perturbation in °C, in observation units."""
    return delta_c / TEMP_SCALE_C


def out_temp_to_obs(delta_c: np.ndarray | float) -> np.ndarray | float:
    """An outdoor/forecast-temperature perturbation in °C, in obs units."""
    return delta_c / OUT_SCALE_C


# ------------------------------------------------------------- time tables
@dataclass(frozen=True)
class TimeTables:
    """Time-indexed inputs of ``n`` envs, one row each, padded to the
    longest trace ``T``.

    Attributes
    ----------
    clock:
        ``(n, T, 3)`` sine and cosine of the hour angle and the workday
        flag — the observation's first three channels.
    exo:
        ``(n, T, 3)`` ambient temperature (°C), GHI (W/m²) and price
        ($/kWh).
    occupied, gains:
        ``(n, T, max_zones)`` occupancy flags and internal gains (W).
    day, hour:
        ``(n, T)`` day of year and hour of day.
    last:
        ``(n,)`` each trace's last index.

    Past a trace's end, temperature, GHI, day and hour repeat the last
    sample (gathers at a frozen terminal index stay in range); the rest
    stays zero there, as nothing reads it.
    """

    clock: np.ndarray
    exo: np.ndarray
    occupied: np.ndarray
    gains: np.ndarray
    day: np.ndarray
    hour: np.ndarray
    last: np.ndarray


# The methods :func:`time_tables` samples a tariff and a schedule by.
_TARIFF_METHODS = ("price_per_kwh",)
_SCHEDULE_METHODS = ("occupied", "gains_w_per_m2")


def _read_only(*arrays: np.ndarray) -> tuple:
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=ROW_MEMO_SIZE)
def _clock_rows(start_day: int, t: int, dt: float) -> tuple:
    """Days, hours and ``(t, 3)`` clock channels of a trace clock
    (read-only, memoized per clock)."""
    seconds = np.arange(t) * dt
    hours = (seconds % SECONDS_PER_DAY) / SECONDS_PER_HOUR
    days = ((start_day - 1 + (seconds // SECONDS_PER_DAY).astype(int)) % 365) + 1
    angle = 2.0 * np.pi * hours / 24.0
    workday = np.where((days - 1) % 7 >= 5, 0.0, 1.0)
    return _read_only(days, hours, np.stack([np.sin(angle), np.cos(angle), workday], axis=1))


def _sample(component, methods: Tuple[str, ...], clock: tuple) -> tuple:
    """One row per named method of a tariff or schedule: its value at
    every ``(day, hour)`` sample of a trace clock."""
    days, hours, _ = _clock_rows(*clock)
    samples = list(zip(days.tolist(), hours.tolist()))
    calls = [getattr(component, name) for name in methods]
    return tuple(np.array([call(d, h) for d, h in samples]) for call in calls)


@functools.lru_cache(maxsize=COMPONENT_ROW_MEMO_SIZE)
def _memo_sample(component, methods: Tuple[str, ...], clock: tuple) -> tuple:
    return _read_only(*_sample(component, methods, clock))


def _component_rows(component, methods: Tuple[str, ...], clock: tuple) -> tuple:
    """:func:`_sample`, memoized per (component, clock): components are
    frozen and value-hashable, so equal ones share rows across envs,
    fleets and scalar envs.  An unhashable custom component gets its rows
    built for its own env."""
    try:
        return _memo_sample(component, methods, clock)
    except TypeError:  # unhashable: no memoization
        return _sample(component, methods, clock)


def time_tables(envs: Sequence) -> TimeTables:
    """Precompute every time-indexed input of ``envs``.

    Each env needs ``weather``, ``tariff`` and ``building`` attributes —
    the :class:`~repro.env.hvac_env.HVACEnv` surface.  The clock rows
    depend only on the trace clock ``(start_day, T, dt)``, and a
    tariff's price row and a schedule's occupancy/gains rows only on the
    component and the clock, so each distinct row is built once per
    process (bounded memos, :data:`ROW_MEMO_SIZE` clocks and
    :data:`COMPONENT_ROW_MEMO_SIZE` component rows) and copied to every
    env that uses it: fleets of similar buildings, and scalar envs alike,
    pay the per-sample Python cost once per shared clock.
    """
    n = len(envs)
    trace_len = np.array([len(env.weather) for env in envs])
    t_max = int(trace_len.max())
    z = max(env.building.n_zones for env in envs)
    clock = np.zeros((n, t_max, 3))
    exo = np.zeros((n, t_max, 3))
    occupied = np.zeros((n, t_max, z), dtype=bool)
    gains = np.zeros((n, t_max, z))
    day = np.zeros((n, t_max), dtype=int)
    hour = np.zeros((n, t_max))

    for k, env in enumerate(envs):
        weather = env.weather
        t = len(weather)
        key = (weather.start_day_of_year, t, weather.dt_seconds)
        days, hours, clock_rows = _clock_rows(*key)
        clock[k, :t] = clock_rows
        hour[k, :t] = hours
        day[k, :t] = days
        exo[k, :t, 0] = weather.temp_out_c
        exo[k, :t, 1] = weather.ghi_w_m2
        exo[k, t:, 0] = weather.temp_out_c[-1]
        exo[k, t:, 1] = weather.ghi_w_m2[-1]
        hour[k, t:] = hours[-1]
        day[k, t:] = days[-1]
        exo[k, :t, 2], = _component_rows(env.tariff, _TARIFF_METHODS, key)
        for j, (zone, sched) in enumerate(
            zip(env.building.zones, env.building.schedules)
        ):
            flags, w_per_m2 = _component_rows(sched, _SCHEDULE_METHODS, key)
            occupied[k, :t, j] = flags
            gains[k, :t, j] = w_per_m2 * zone.floor_area_m2
    return TimeTables(clock, exo, occupied, gains, day, hour, trace_len - 1)


# ---------------------------------------------------------------- forecast
def forecast(
    exo: np.ndarray,
    at: np.ndarray,
    last: np.ndarray,
    scales: np.ndarray,
    noise: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Noisy weather forecasts of leads ``1..h`` from sample ``at`` of
    :class:`TimeTables` ``exo`` flattened to ``(n_rows * T, 3)``.

    ``at`` and ``last`` are ``(n,)`` flat indices of each row's current
    and last sample; lead ``k`` reads ``min(at + k, last)``, so the last
    sample persists.  ``noise`` holds ``(n, 2h)`` normals as
    :meth:`~repro.weather.forecast.ForecastProvider.draw_noise` draws
    them (temperature then GHI, per lead), ``scales`` the std of each.
    Temperature error is additive, GHI error relative, GHI never
    negative.  Returns ``(temps, ghis)``, each ``(n, h)``.
    """
    n, h = len(at), scales.shape[1] // 2
    j = np.minimum(at[:, None] + np.arange(1, h + 1), last[:, None])
    truth = exo.take(j, 0)[..., :2].reshape(n, 2 * h)
    error = 0.0 + scales * noise  # a -0.0 error reads +0.0, as recorded
    temps = truth[:, 0::2] + error[:, 0::2]
    ghis = np.maximum(truth[:, 1::2] * (1.0 + error[:, 1::2]), 0.0)
    return temps, ghis


# ----------------------------------------------------------------- encoder
def encode(
    layout: ObsLayout,
    clock: np.ndarray,
    occupied: np.ndarray,
    temps: np.ndarray,
    now: np.ndarray,
    f_temp: np.ndarray,
    f_ghi: np.ndarray,
    pad: int = 0,
) -> np.ndarray:
    """Observation rows of ``layout`` from gathered inputs: ``clock``,
    ``now`` and ``occupied`` are :class:`TimeTables` ``clock``, ``exo``
    and ``occupied`` at each row's time index, ``temps`` the ``(n,
    n_zones)`` zone temperatures (°C), ``f_temp``/``f_ghi`` the
    :func:`forecast` rows, in the layout's channel order.  Each row gets
    ``pad`` trailing zeros."""
    obs = np.concatenate(
        [clock, occupied, temps, now, f_temp, f_ghi, np.zeros((len(temps), pad))],
        axis=1,
    )
    center, scale = layout.scaling
    body = obs[:, : layout.obs_dim]
    body -= center
    body /= scale
    return obs
