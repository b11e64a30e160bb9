"""Rule-based ON/OFF (two-position) thermostat — the paper's baseline.

Each zone independently runs hysteresis control around a cooling
setpoint: airflow switches to maximum when the zone temperature rises
above ``setpoint + deadband/2`` and back off below
``setpoint - deadband/2``.  This ignores prices and forecasts entirely —
exactly the conventional controller the paper's DRL agent is measured
against.

The controller reads zone temperatures directly from the environment
(it is a local device with its own sensor, not an observer of the RL
feature vector), so it must be bound to an env before use.

One arithmetic serves two sizes: :func:`thermostat_step` runs the
hysteresis over any ``(rows, zones)`` arrays.  :class:`ThermostatController`
calls it on one env's zone vector; :class:`FleetThermostat` calls it
once on a whole fleet's ``(n_envs, max_zones)`` sensed-temperature
matrix with the default settings and each row's own ON level, so every
row decides byte-identically to a default scalar thermostat bound to
that env.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.agent import AgentBase
from repro.env.core import Env
from repro.utils.validation import check_in_range, check_positive

#: Default settings, shared by :class:`ThermostatController` and
#: :class:`FleetThermostat`.
DEFAULT_SETPOINT_C = 24.5
DEFAULT_DEADBAND_C = 1.0
DEFAULT_OFF_LEVEL = 0


def thermostat_step(temps, state, setpoint_c, deadband_c, on_level, off_level):
    """One hysteresis step; returns ``(state, levels)``.

    ``temps`` and ``state`` (True = cooling ON) are ``(zones,)`` or
    ``(rows, zones)`` arrays; the settings are scalars or columns that
    broadcast against them.
    """
    upper = setpoint_c + 0.5 * deadband_c
    lower = setpoint_c - 0.5 * deadband_c
    state = np.where(temps > upper, True, state)
    state = np.where(temps < lower, False, state)
    return state, np.where(state, on_level, off_level)


class ThermostatController(AgentBase):
    """Per-zone two-position cooling control with hysteresis.

    Parameters
    ----------
    env:
        The environment whose (unwrapped) ``zone_temps_c`` this thermostat
        senses.
    setpoint_c:
        Cooling setpoint; defaults to the middle-upper region of the
        default occupied comfort band.
    deadband_c:
        Full hysteresis width around the setpoint.
    on_level / off_level:
        Airflow level indices used in the ON and OFF states.
    """

    def __init__(
        self,
        env: Env,
        *,
        setpoint_c: float = DEFAULT_SETPOINT_C,
        deadband_c: float = DEFAULT_DEADBAND_C,
        on_level: Optional[int] = None,
        off_level: int = DEFAULT_OFF_LEVEL,
    ) -> None:
        check_in_range("setpoint_c", setpoint_c, 0.0, 40.0)
        check_positive("deadband_c", deadband_c)
        inner = env.unwrapped()
        n_levels = int(inner.action_space.nvec[0])
        self.env = inner
        self.setpoint_c = float(setpoint_c)
        self.deadband_c = float(deadband_c)
        self.on_level = int(on_level) if on_level is not None else n_levels - 1
        self.off_level = int(off_level)
        if not 0 <= self.off_level < self.on_level < n_levels:
            raise ValueError(
                f"need 0 <= off_level < on_level < {n_levels}, "
                f"got off={self.off_level} on={self.on_level}"
            )
        self.n_zones = len(inner.action_space.nvec)
        self._state = np.zeros(self.n_zones, dtype=bool)  # True = cooling ON

    def begin_episode(self, obs: np.ndarray) -> None:
        self._state[:] = False

    def select_action(self, obs: np.ndarray, *, explore: bool = False) -> np.ndarray:
        self._state, levels = thermostat_step(
            self.env.zone_temps_c, self._state, self.setpoint_c, self.deadband_c,
            self.on_level, self.off_level,
        )
        return levels


class FleetThermostat:
    """One default thermostat per fleet row, decided in one array step.

    Bound to a :class:`~repro.sim.VectorHVACEnv` or a
    :class:`~repro.faults.FaultyVectorHVACEnv`, it senses the fleet's
    ``sensed_zone_temps_c`` — the faulted reading in a faulted fleet —
    and keeps its ON/OFF state as an ``(n_envs, max_zones)`` matrix.
    Every row uses the scalar controller's default setpoint, deadband
    and OFF level; its ON level is that row's highest airflow level.

    ``select_actions`` returns an int64 ``(n_envs, max_zones)`` level
    matrix, padded zones at level 0; frozen rows keep deciding, exactly
    as a scalar thermostat asked each step would.
    """

    def __init__(self, vec_env) -> None:
        on = vec_env.n_levels - 1
        if not (DEFAULT_OFF_LEVEL < on).all():
            raise ValueError(
                f"need off_level {DEFAULT_OFF_LEVEL} < on_level on every row, "
                f"got levels per row {vec_env.n_levels.tolist()}"
            )
        self.vec_env = vec_env
        mask = vec_env.zone_mask
        # Padded zones are at level 0 in either state (the OFF level is 0).
        self.on_level = np.where(mask, on[:, None], 0)
        self._state = np.zeros(mask.shape, dtype=bool)

    def begin_episode(self, obs_batch: np.ndarray) -> None:
        self._state[:] = False

    def select_actions(self, obs_batch: np.ndarray, *, explore: bool = False) -> np.ndarray:
        self._state, levels = thermostat_step(
            self.vec_env.sensed_zone_temps_c, self._state, DEFAULT_SETPOINT_C,
            DEFAULT_DEADBAND_C, self.on_level, DEFAULT_OFF_LEVEL,
        )
        return levels
