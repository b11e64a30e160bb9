"""The HVAC-control MDP (the paper's problem formulation).

State (one control step, 15 minutes by default)
    time-of-day encoding, workday flag, per-zone occupancy, zone
    temperatures, ambient temperature, solar irradiance, current
    electricity price, and noisy weather forecasts for the next
    ``forecast_horizon`` steps — exactly the channels the DAC'17 state
    vector carries, pre-scaled to O(1) ranges for the Q-network.

Action
    one discrete airflow level per zone (``MultiDiscrete``).

Reward
    ``-(energy cost in $) - comfort_weight * (violation degree-hours)``,
    i.e. the paper's weighted trade-off between energy cost and comfort.

The transition itself — plant response, RC advance, comfort and reward —
is the shared control-step kernel (:mod:`repro.env.kernel`), and the
observation, its time tables and forecasts are
:mod:`repro.env.observation`; the env is the one-row case of both, as
the fleet (:class:`~repro.sim.vector_env.VectorHVACEnv`) is the
many-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.building.building import Building
from repro.env.comfort import ComfortBand
from repro.env.core import Env, StepResult
from repro.env.kernel import (
    StepColumns,
    StepRows,
    require_exact_propagator,
    step_columns,
    step_rows,
)
from repro.env.observation import ObsLayout, TimeTables, encode, forecast, time_tables
from repro.env.spaces import Box, MultiDiscrete
from repro.hvac.tariffs import Tariff, TimeOfUseTariff
from repro.hvac.vav import VAVConfig, VAVSystem
from repro.utils.seeding import (
    RandomState,
    derive_rng,
    ensure_rng,
    rng_state,
    set_rng_state,
)
from repro.utils.validation import check_positive
from repro.weather.forecast import ForecastProvider
from repro.weather.series import SECONDS_PER_DAY, WeatherSeries

# The one table row of a scalar env.
_ROW = np.zeros(1, dtype=int)


@dataclass(frozen=True)
class HVACEnvConfig:
    """Episode and reward configuration.

    Attributes
    ----------
    comfort_weight:
        λ — dollars of penalty per zone-degree-hour of comfort violation.
        The paper's single trade-off knob (swept in experiment E5).
    episode_days:
        Episode length; one episode of one day matches the paper's
        training protocol.
    randomize_start_day:
        When True each episode starts at a random day of the weather
        trace (weather-diverse training); when False at day 0.
    forecast_horizon:
        Number of future control steps of weather forecast in the state
        (0 disables forecast augmentation — ablated in E6).
    forecast_temp_noise_std:
        Forecast temperature error per step of lead time, °C.
    initial_temp_noise_c:
        Half-width of the uniform perturbation applied to initial zone
        temperatures at reset.
    """

    comfort_weight: float = 1.0
    cost_weight: float = 1.0
    episode_days: float = 1.0
    randomize_start_day: bool = False
    forecast_horizon: int = 3
    forecast_temp_noise_std: float = 0.25
    forecast_ghi_relative_noise: float = 0.05
    initial_temp_noise_c: float = 0.5

    def __post_init__(self) -> None:
        check_positive("comfort_weight", self.comfort_weight, strict=False)
        check_positive("cost_weight", self.cost_weight, strict=False)
        check_positive("episode_days", self.episode_days)
        if self.forecast_horizon < 0:
            raise ValueError(
                f"forecast_horizon must be >= 0, got {self.forecast_horizon}"
            )
        check_positive("initial_temp_noise_c", self.initial_temp_noise_c, strict=False)


class HVACEnv(Env):
    """Building + VAV plant + weather + tariff composed into an MDP."""

    def __init__(
        self,
        building: Building,
        weather: WeatherSeries,
        *,
        vav: VAVConfig | VAVSystem | None = None,
        tariff: Optional[Tariff] = None,
        comfort: Optional[ComfortBand] = None,
        config: Optional[HVACEnvConfig] = None,
        rng: RandomState | int | None = None,
    ) -> None:
        require_exact_propagator(building.network)
        self.building = building
        self.weather = weather
        if vav is None:
            vav = VAVConfig()
        if isinstance(vav, VAVConfig):
            vav = VAVSystem(vav, building.n_zones)
        if vav.n_zones != building.n_zones:
            raise ValueError(
                f"VAV serves {vav.n_zones} zones but building has {building.n_zones}"
            )
        self.vav = vav
        self.tariff = tariff if tariff is not None else TimeOfUseTariff()
        self.comfort = comfort if comfort is not None else ComfortBand()
        self.config = config if config is not None else HVACEnvConfig()

        self._rng = ensure_rng(rng)
        self._forecast = ForecastProvider(
            horizon=self.config.forecast_horizon,
            temp_noise_std_per_step=self.config.forecast_temp_noise_std,
            ghi_relative_noise_per_step=self.config.forecast_ghi_relative_noise,
            rng=derive_rng(self._rng, "forecast"),
        )

        self.steps_per_day = int(round(SECONDS_PER_DAY / weather.dt_seconds))
        self.episode_steps = int(round(self.config.episode_days * self.steps_per_day))
        if self.episode_steps < 1:
            raise ValueError("episode must span at least one control step")
        if self.episode_steps >= len(weather):
            raise ValueError(
                f"episode of {self.episode_steps} steps does not fit in weather "
                f"trace of {len(weather)} samples"
            )

        n = building.n_zones
        self.action_space = MultiDiscrete([vav.n_levels] * n)
        self.layout = ObsLayout(n, self.config.forecast_horizon, vav.n_levels)
        self.observation_space = Box(-np.inf, np.inf, (self.layout.obs_dim,))

        self._index = 0
        self._start_index = 0
        self._temps = np.full(n, 0.5 * (self.comfort.occupied_low_c + self.comfort.occupied_high_c))
        self._steps_taken = 0
        self._needs_reset = True

    @cached_property
    def _cols(self) -> StepColumns:
        """This env's one-row kernel columns (built on first use: a fleet
        builds its own columns for all its envs at once)."""
        return step_columns([self])

    @cached_property
    def _tables(self) -> TimeTables:
        """This env's one-row time tables (built on first use: a fleet
        builds its own tables for all its envs at once)."""
        return time_tables([self])

    # ------------------------------------------------------------- features
    @property
    def obs_names(self) -> List[str]:
        """Names of observation channels, index-aligned with the vector."""
        return self.layout.names(self.building.zone_names)

    def _observation(self) -> np.ndarray:
        i = self._index
        tab = self._tables
        provider = self._forecast
        noise = provider.draw_noise() if provider.horizon else np.zeros(0)
        f_temp, f_ghi = forecast(
            tab, _ROW, np.array([i]), provider.scales[None], noise[None]
        )
        return encode(
            self.layout, tab.clock[0, i], tab.occupied[0, i], self._temps[None],
            tab.exo[0, i], f_temp, f_ghi,
        )[0]

    # ------------------------------------------------------------ lifecycle
    def reset_state(self) -> None:
        """Reset episode state (start index, temperatures) without building
        the observation.

        Split out from :meth:`reset` so batched simulators
        (:class:`repro.sim.VectorHVACEnv`) can reuse the exact same RNG
        consumption while assembling observations themselves.
        """
        max_start_day = int(len(self.weather) / self.steps_per_day - self.config.episode_days)
        if self.config.randomize_start_day and max_start_day > 0:
            start_day = int(self._rng.integers(0, max_start_day + 1))
        else:
            start_day = 0
        self._start_index = start_day * self.steps_per_day
        self._index = self._start_index
        mid = 0.5 * (self.comfort.occupied_low_c + self.comfort.occupied_high_c)
        noise = self.config.initial_temp_noise_c
        self._temps = mid + self._rng.uniform(-noise, noise, size=self.building.n_zones)
        self._steps_taken = 0
        self._needs_reset = False

    def reset(self) -> np.ndarray:
        """Start a new episode; returns the initial observation."""
        self.reset_state()
        return self._observation()

    def _coerce_action(self, action) -> np.ndarray:
        if np.isscalar(action) and self.building.n_zones == 1:
            action = [int(action)]
        levels = np.asarray(action, dtype=int)
        if not self.action_space.contains(levels):
            raise ValueError(f"action {action!r} not in {self.action_space}")
        return levels

    def _step_rows(self, levels: np.ndarray) -> Tuple[StepRows, Dict[str, object]]:
        """The kernel's control step of each ``levels`` row from the
        current state, and the step's exogenous inputs (info-dict keys).

        The env itself does not move: :meth:`step` commits its single
        row; the lookahead oracle scores every candidate action.
        Comfort is scored on the end-of-step temperatures.
        """
        i = self._index
        tab = self._tables
        temp_out, ghi, price = tab.exo[0, i].tolist()
        inputs: Dict[str, object] = {
            "temp_out_c": temp_out,
            "ghi_w_m2": ghi,
            "price_per_kwh": price,
            "occupied": tab.occupied[0, i].copy(),
            "day_of_year": int(tab.day[0, i]),
            "hour_of_day": float(tab.hour[0, i]),
        }
        dt = self.weather.dt_seconds
        net = self.building.network
        decay, gain = net._propagator(dt)
        rows = step_rows(
            self._cols, net, decay, gain, levels, self._temps[None],
            tab.exo[0, i : i + 1, 0], tab.exo[0, i : i + 1, 1], price,
            inputs["occupied"], tab.gains[0, i], dt,
        )
        return rows, inputs

    def step(self, action) -> StepResult:
        """Apply per-zone airflow levels for one control step."""
        if self._needs_reset:
            raise RuntimeError("call reset() before step()")
        levels = self._coerce_action(action)
        rows, inputs = self._step_rows(levels[None])
        new_temps = rows.new_temps[0]
        out = rows.outcome

        self._temps = new_temps
        self._index += 1
        self._steps_taken += 1
        done = self._steps_taken >= self.episode_steps
        if self._index >= len(self.weather) - 1:
            done = True
        if done:
            self._needs_reset = True

        info: Dict[str, object] = {
            "energy_kwh": float(out.energy_kwh[0]),
            "cost_usd": float(out.cost_usd[0]),
            "power_w": float(rows.power_w[0]),
            "violation_deg_hours": float(out.violation_deg_hours[0]),
            "violation_per_zone_deg": out.violations[0],
            "reward_per_zone": out.reward_per_zone[0],
            "temps_c": new_temps.copy(),
            "temp_out_c": inputs["temp_out_c"],
            "ghi_w_m2": inputs["ghi_w_m2"],
            "price_per_kwh": inputs["price_per_kwh"],
            "levels": levels.copy(),
            "occupied": inputs["occupied"],
            "day_of_year": inputs["day_of_year"],
            "hour_of_day": inputs["hour_of_day"],
        }
        return self._observation(), float(out.reward[0]), bool(done), info

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Serialize episode state and RNG streams to a JSON-safe dict.

        Static configuration (building, weather, tariff) is *not* stored —
        a checkpoint is restored into an identically constructed env.
        Restoring positions both generators (reset randomization and
        forecast noise) exactly, so a resumed run consumes the same random
        stream an uninterrupted one would.
        """
        return {
            "index": int(self._index),
            "start_index": int(self._start_index),
            "steps_taken": int(self._steps_taken),
            "needs_reset": bool(self._needs_reset),
            "temps": self._temps.tolist(),
            "rng": rng_state(self._rng),
            "forecast_rng": rng_state(self._forecast._rng),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this env."""
        temps = np.asarray(state["temps"], dtype=np.float64)
        if temps.shape != (self.building.n_zones,):
            raise ValueError(
                f"state has {temps.shape[0] if temps.ndim else 0} zone "
                f"temperatures for a {self.building.n_zones}-zone building"
            )
        self._index = int(state["index"])
        self._start_index = int(state["start_index"])
        self._steps_taken = int(state["steps_taken"])
        self._needs_reset = bool(state["needs_reset"])
        self._temps = temps
        set_rng_state(self._rng, state["rng"])
        set_rng_state(self._forecast._rng, state["forecast_rng"])

    # ------------------------------------------------------------- helpers
    @property
    def zone_temps_c(self) -> np.ndarray:
        """Current zone temperatures (read-only copy)."""
        return self._temps.copy()

    @property
    def time_index(self) -> int:
        """Current index into the weather trace (advances each step)."""
        return self._index

    @property
    def obs_dim(self) -> int:
        """Length of the observation vector."""
        return self.layout.obs_dim
