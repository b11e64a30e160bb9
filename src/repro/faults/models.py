"""Concrete fault models: sensors, actuators, forecasts, occupancy.

Every model perturbs the sensing/actuation boundary only (see
:mod:`repro.faults.base`); parameters are in physical units (°C,
fractions) and converted to observation scaling internally.  Each hook
acts on a block of rows that share one observation layout (see
:class:`~repro.faults.base.FaultModel`): window checks are step-array
masks, latches and stuck or capped levels are masked assignments, and
stochastic models draw through :meth:`~repro.faults.base.FaultModel._draw`,
so every row consumes its own fault stream exactly as a scalar faulted
env would.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.env.observation import ObsLayout, out_temp_to_obs, temp_to_obs
from repro.faults.base import FaultModel
from repro.utils.validation import check_in_range, check_positive

_SENSOR_CHANNELS = ("zone_temp", "temp_out", "ghi")
_ACTUATOR_MODES = ("stuck", "degraded")
_STUCK_MODES = ("hold", "drop")


class SensorNoise(FaultModel):
    """Gaussian noise and/or constant bias on sensed temperatures and
    irradiance — degraded-but-working instrumentation.

    ``temp_std_c``/``temp_bias_c`` act per zone-temperature channel,
    ``out_std_c``/``out_bias_c`` on the outdoor temperature, and
    ``ghi_rel_std`` multiplies irradiance by ``1 + N(0, σ)`` (clipped at
    zero).  Stateless: the noise never sticks.  Each row draws one
    standard-normal vector per observation: its zone temperatures, then
    the outdoor temperature, then irradiance (the noisy channels only).
    """

    kind = "sensor_noise"

    def __init__(
        self,
        *,
        temp_std_c: float = 0.0,
        temp_bias_c: float = 0.0,
        out_std_c: float = 0.0,
        out_bias_c: float = 0.0,
        ghi_rel_std: float = 0.0,
    ) -> None:
        super().__init__()
        check_positive("temp_std_c", temp_std_c, strict=False)
        check_positive("out_std_c", out_std_c, strict=False)
        check_positive("ghi_rel_std", ghi_rel_std, strict=False)
        self.temp_std_c = float(temp_std_c)
        self.temp_bias_c = float(temp_bias_c)
        self.out_std_c = float(out_std_c)
        self.out_bias_c = float(out_bias_c)
        self.ghi_rel_std = float(ghi_rel_std)

    def apply_obs(self, lay, rows, steps, obs) -> None:
        m = lay.n_zones
        n_temp = m if self.temp_std_c > 0.0 else 0
        n_out = int(self.out_std_c > 0.0)
        width = n_temp + n_out + int(self.ghi_rel_std > 0.0)
        z = self._draw(rows, lambda rng: rng.standard_normal(width)) if width else None
        if self.temp_std_c > 0.0 or self.temp_bias_c != 0.0:
            delta = self.temp_bias_c
            if n_temp:
                delta = delta + self.temp_std_c * z[:, :m]
            obs[:, lay.temps] += temp_to_obs(delta)
        if self.out_std_c > 0.0 or self.out_bias_c != 0.0:
            delta = self.out_bias_c
            if n_out:
                delta = delta + self.out_std_c * z[:, n_temp]
            obs[:, lay.temp_out] += out_temp_to_obs(delta)
        if self.ghi_rel_std > 0.0:
            factor = 1.0 + self.ghi_rel_std * z[:, -1]
            obs[:, lay.ghi] *= np.maximum(factor, 0.0)

    def describe(self) -> str:
        return (
            f"sensor noise (temp σ={self.temp_std_c}°C bias={self.temp_bias_c}°C, "
            f"out σ={self.out_std_c}°C, ghi σ={self.ghi_rel_std:.0%})"
        )


class StuckSensor(FaultModel):
    """A sensor channel that freezes (``mode="hold"``) or reads zero
    (``mode="drop"``) inside a step window.

    ``channel`` selects zone temperature (of ``zone``), outdoor
    temperature, or irradiance.  ``hold`` latches the last healthy
    reading at fault onset — the classic stuck-thermistor signature —
    and that latched value is part of the checkpoint state.
    """

    kind = "stuck_sensor"

    def __init__(
        self,
        *,
        channel: str = "zone_temp",
        zone: int = 0,
        start_step: int = 0,
        duration_steps: Optional[int] = None,
        mode: str = "hold",
    ) -> None:
        super().__init__()
        if channel not in _SENSOR_CHANNELS:
            raise ValueError(
                f"unknown channel {channel!r}; choose from {_SENSOR_CHANNELS}"
            )
        if mode not in _STUCK_MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {_STUCK_MODES}")
        if zone < 0:
            raise ValueError(f"zone must be >= 0, got {zone}")
        if start_step < 0:
            raise ValueError(f"start_step must be >= 0, got {start_step}")
        if duration_steps is not None:
            check_positive("duration_steps", duration_steps)
        self.channel = channel
        self.zone = int(zone)
        self.start_step = int(start_step)
        self.duration_steps = duration_steps
        self.mode = mode

    def _allocate(self) -> None:
        self._held = np.zeros(self.n_envs)
        self._held_set = np.zeros(self.n_envs, dtype=bool)

    def on_reset(self, rows) -> None:
        self._held_set[rows] = False

    def _column(self, lay: ObsLayout) -> Optional[int]:
        if self.channel == "zone_temp":
            if self.zone >= lay.n_zones:  # no such zone in this env: inert
                return None
            return lay.temps.start + self.zone
        if self.channel == "temp_out":
            return lay.temp_out
        return lay.ghi

    def apply_obs(self, lay, rows, steps, obs) -> None:
        col = self._column(lay)
        on = self.in_window(steps, self.start_step, self.duration_steps)
        if col is None or not on.any():
            return
        if self.mode == "drop":
            obs[on, col] = 0.0
            return
        # Rows entering the window latch their current reading.
        latch = on & ~self._held_set[rows]
        self._held[rows[latch]] = obs[latch, col]
        self._held_set[rows[latch]] = True
        obs[on, col] = self._held[rows[on]]

    def state_dict(self) -> dict:
        return {
            "held": self._held.tolist(),
            "held_set": self._held_set.tolist(),
        }

    def load_state_dict(self, state: dict) -> None:
        held = np.asarray(state["held"], dtype=np.float64)
        held_set = np.asarray(state["held_set"], dtype=bool)
        if held.shape != (self.n_envs,) or held_set.shape != (self.n_envs,):
            raise ValueError(
                f"stuck-sensor state covers {held.shape[0]} envs, "
                f"model is bound to {self.n_envs}"
            )
        self._held = held
        self._held_set = held_set

    def describe(self) -> str:
        where = (
            f"zone {self.zone} temp" if self.channel == "zone_temp" else self.channel
        )
        until = (
            "onward" if self.duration_steps is None else f"for {self.duration_steps}"
        )
        return f"{self.mode} {where} sensor from step {self.start_step} {until}"


class ActuatorFault(FaultModel):
    """A damper that jams (``mode="stuck"``) or a plant that loses
    capacity (``mode="degraded"``) inside a step window.

    ``zone=None`` hits every zone (a central-plant fault); otherwise one
    zone's damper.  ``stuck`` forces the level to ``stuck_level``;
    ``degraded`` caps levels at ``floor(capacity_factor · (n_levels-1))``
    — the compressor/fan can no longer reach full output.
    """

    kind = "actuator"

    def __init__(
        self,
        *,
        zone: Optional[int] = None,
        mode: str = "stuck",
        stuck_level: int = 0,
        capacity_factor: float = 0.5,
        start_step: int = 0,
        duration_steps: Optional[int] = None,
    ) -> None:
        super().__init__()
        if mode not in _ACTUATOR_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {_ACTUATOR_MODES}"
            )
        if zone is not None and zone < 0:
            raise ValueError(f"zone must be >= 0, got {zone}")
        if stuck_level < 0:
            raise ValueError(f"stuck_level must be >= 0, got {stuck_level}")
        check_in_range("capacity_factor", capacity_factor, 0.0, 1.0)
        if start_step < 0:
            raise ValueError(f"start_step must be >= 0, got {start_step}")
        if duration_steps is not None:
            check_positive("duration_steps", duration_steps)
        self.zone = None if zone is None else int(zone)
        self.mode = mode
        self.stuck_level = int(stuck_level)
        self.capacity_factor = float(capacity_factor)
        self.start_step = int(start_step)
        self.duration_steps = duration_steps

    def apply_action(self, lay, rows, steps, levels) -> None:
        if self.zone is not None and self.zone >= lay.n_zones:
            return  # no such zone in these envs: inert
        on = self.in_window(steps, self.start_step, self.duration_steps)
        zones = slice(None) if self.zone is None else self.zone
        if self.mode == "stuck":
            levels[on, zones] = min(self.stuck_level, lay.n_levels - 1)
        else:
            cap = int(np.floor(self.capacity_factor * (lay.n_levels - 1)))
            levels[on, zones] = np.minimum(levels[on, zones], cap)

    def describe(self) -> str:
        where = "all zones" if self.zone is None else f"zone {self.zone}"
        if self.mode == "stuck":
            return f"{where} damper stuck at level {self.stuck_level}"
        return f"{where} capacity degraded to {self.capacity_factor:.0%}"


class ForecastFault(FaultModel):
    """A broken forecast feed: systematic bias and/or extra noise on the
    forecast observation channels (temperature °C, irradiance relative).

    Inert for envs configured without forecast augmentation
    (``forecast_horizon=0``).
    """

    kind = "forecast"

    def __init__(
        self,
        *,
        temp_bias_c: float = 0.0,
        temp_std_c: float = 0.0,
        ghi_rel_bias: float = 0.0,
    ) -> None:
        super().__init__()
        check_positive("temp_std_c", temp_std_c, strict=False)
        if ghi_rel_bias < -1.0:
            raise ValueError(
                f"ghi_rel_bias must be >= -1 (cannot remove more than all "
                f"irradiance), got {ghi_rel_bias}"
            )
        self.temp_bias_c = float(temp_bias_c)
        self.temp_std_c = float(temp_std_c)
        self.ghi_rel_bias = float(ghi_rel_bias)

    def apply_obs(self, lay, rows, steps, obs) -> None:
        h = lay.horizon
        if h == 0:
            return
        delta = self.temp_bias_c
        if self.temp_std_c > 0.0:
            delta = delta + self._draw(
                rows, lambda rng: rng.normal(0.0, self.temp_std_c, size=h)
            )
        obs[:, lay.forecast_temp] += out_temp_to_obs(delta)
        if self.ghi_rel_bias != 0.0:
            obs[:, lay.forecast_ghi] *= 1.0 + self.ghi_rel_bias

    def describe(self) -> str:
        return (
            f"forecast fault (bias {self.temp_bias_c:+.1f}°C, "
            f"σ={self.temp_std_c}°C, ghi {self.ghi_rel_bias:+.0%})"
        )


class OccupancyFault(FaultModel):
    """Occupancy surprises at the sensing boundary: the schedule feed
    the controller sees disagrees with the building's true occupancy.

    ``p_flip`` flips each zone's occupancy flag independently per step
    (flaky occupancy sensing); a ``[surprise_start, +duration)`` window
    *inverts* every flag (an unannounced weekend crowd, or a holiday the
    feed missed).  True occupancy — and therefore comfort accounting —
    is untouched; the controller simply plans on wrong information.
    """

    kind = "occupancy"

    def __init__(
        self,
        *,
        p_flip: float = 0.0,
        surprise_start: Optional[int] = None,
        surprise_duration: Optional[int] = None,
    ) -> None:
        super().__init__()
        check_in_range("p_flip", p_flip, 0.0, 1.0)
        if surprise_start is not None and surprise_start < 0:
            raise ValueError(
                f"surprise_start must be >= 0, got {surprise_start}"
            )
        if surprise_duration is not None:
            check_positive("surprise_duration", surprise_duration)
        self.p_flip = float(p_flip)
        self.surprise_start = surprise_start
        self.surprise_duration = surprise_duration

    def apply_obs(self, lay, rows, steps, obs) -> None:
        occ = obs[:, lay.occupied]
        if self.p_flip > 0.0:
            m = lay.n_zones
            flips = self._draw(rows, lambda rng: rng.uniform(size=m)) < self.p_flip
            occ[:] = np.where(flips, 1.0 - occ, occ)
        if self.surprise_start is not None:
            on = self.in_window(steps, self.surprise_start, self.surprise_duration)
            occ[on] = 1.0 - occ[on]

    def describe(self) -> str:
        parts: List[str] = []
        if self.p_flip > 0.0:
            parts.append(f"flip p={self.p_flip}")
        if self.surprise_start is not None:
            parts.append(f"inversion window from step {self.surprise_start}")
        return f"occupancy fault ({', '.join(parts) or 'inert'})"
