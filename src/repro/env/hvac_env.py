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

:class:`HVACEnv` holds the configuration — building, plant, weather,
tariff, comfort band, spaces, observation layout and random generators.
Its episode state and every transition belong to a one-row fleet
(:class:`~repro.sim.vector_env.VectorHVACEnv`, built on first use):
``reset``, ``step`` and the checkpoint read or drive that fleet, so the
scalar env and a fleet row run one reset draw, one control-step kernel
(:mod:`repro.env.kernel`) and one observation
(:mod:`repro.env.observation`) by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.building.building import Building
from repro.env.comfort import ComfortBand
from repro.env.core import Env, StepResult
from repro.env.kernel import StepColumns, StepRows, require_exact_propagator
from repro.env.observation import ObsLayout, TimeTables
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

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.vector_env import VectorHVACEnv


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

    @cached_property
    def _fleet(self) -> "VectorHVACEnv":
        """This env as a one-row fleet, which owns its episode state (built
        on first use: a fleet of many envs owns theirs itself)."""
        from repro.sim.vector_env import VectorHVACEnv  # repro.sim imports this module

        return VectorHVACEnv([self], autoreset=False)

    @property
    def _cols(self) -> StepColumns:
        """This env's one-row kernel columns."""
        return self._fleet._cols

    @property
    def _tables(self) -> TimeTables:
        """This env's one-row time tables."""
        return self._fleet._tables

    # ------------------------------------------------------------- features
    @property
    def obs_names(self) -> List[str]:
        """Names of observation channels, index-aligned with the vector."""
        return self.layout.names(self.building.zone_names)

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> np.ndarray:
        """Start a new episode; returns the initial observation."""
        return self._fleet.reset()[0]

    def _step_rows(self, levels: np.ndarray) -> Tuple[StepRows, tuple]:
        """The kernel's step of each candidate ``levels`` row from the
        current state (the lookahead oracle's scores); nothing moves."""
        return self._fleet._step_rows(levels)

    def _fleet_levels(self, action) -> np.ndarray:
        """``action`` as the one-row fleet's ``(1, n_zones)`` levels; raises
        when no episode is running (a frozen fleet row would not)."""
        fleet = self._fleet
        if fleet._needs_reset or fleet._done[0]:
            raise RuntimeError("call reset() before step()")
        m = self.building.n_zones
        levels = np.asarray(action, dtype=np.int64)
        # A single-zone env also takes its one level as a scalar.
        if levels.shape != (m,) and (m > 1 or levels.ndim):
            raise ValueError(f"action {action!r} not in {self.action_space}")
        return levels.reshape(1, m)

    def step(self, action) -> StepResult:
        """Apply per-zone airflow levels for one control step."""
        obs, reward, done, info = self._fleet.step(self._fleet_levels(action))
        m = self.building.n_zones
        return obs[0], float(reward[0]), bool(done[0]), info.per_env(0, m)

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Serialize episode state and RNG streams to a JSON-safe dict.

        Static configuration (building, weather, tariff) is *not* stored —
        a checkpoint is restored into an identically constructed env.
        Restoring positions both generators (reset randomization and
        forecast noise) exactly, so a resumed run consumes the same random
        stream an uninterrupted one would.
        """
        fleet = self._fleet
        index, steps = int(fleet._idx[0]), int(fleet._steps_taken[0])
        return {
            "index": index,
            "start_index": index - steps,
            "steps_taken": steps,
            "needs_reset": bool(fleet._needs_reset or fleet._done[0]),
            "temps": fleet._temps[0].tolist(),
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
        fleet = self._fleet
        fleet._place(0, int(state["index"]), int(state["steps_taken"]))
        fleet._temps[0] = temps
        fleet._needs_reset = bool(state["needs_reset"])
        fleet._done[0] = False
        set_rng_state(self._rng, state["rng"])
        set_rng_state(self._forecast._rng, state["forecast_rng"])

    # ------------------------------------------------------------- helpers
    @property
    def zone_temps_c(self) -> np.ndarray:
        """Current zone temperatures (read-only copy)."""
        return self._fleet._temps[0].copy()

    @property
    def time_index(self) -> int:
        """Current index into the weather trace (advances each step)."""
        return int(self._fleet._idx[0])

    @property
    def obs_dim(self) -> int:
        """Length of the observation vector."""
        return self.layout.obs_dim
