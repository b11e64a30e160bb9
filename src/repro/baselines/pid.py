"""PID setpoint tracking mapped onto the discrete airflow levels.

A stronger conventional baseline than the two-position thermostat: each
zone runs an independent PID loop on the cooling error
``T_zone - setpoint`` and the continuous controller output is quantized
to the nearest available airflow level.  Integral windup is clamped.

As with the thermostat, one arithmetic serves two sizes:
:func:`pid_step` runs over any ``(rows, zones)`` arrays.
:class:`PIDController` calls it on one env's zone vector;
:class:`FleetPID` calls it once on a whole fleet's sensed-temperature
matrix with the default setpoint and gains, each row's own top level
and a per-row "first step" flag, so every row decides byte-identically
to a default scalar PID bound to that env.
"""

from __future__ import annotations

import numpy as np

from repro.core.agent import AgentBase
from repro.env.core import Env
from repro.utils.validation import check_positive


#: Default settings, shared by :class:`PIDController` and :class:`FleetPID`.
DEFAULT_SETPOINT_C = 24.0
DEFAULT_KP = 1.5
DEFAULT_KI = 0.05
DEFAULT_KD = 2.0
DEFAULT_INTEGRAL_LIMIT = 10.0


def pid_step(error, integral, last_error, initialized, kp, ki, kd, integral_limit, top):
    """One PID step on ``error = T_zone - setpoint``; returns
    ``(integral, levels)``.

    ``error``, ``integral`` and ``last_error`` are ``(zones,)`` or
    ``(rows, zones)`` arrays.  ``initialized`` (False: the derivative is
    zero, as on an episode's first step), the gains, the windup limit
    and the highest level ``top`` are scalars or columns that broadcast
    against them.
    """
    integral = (integral + error).clip(-integral_limit, integral_limit)
    derivative = np.where(initialized, error - last_error, 0.0)
    output = kp * error + ki * integral + kd * derivative
    return integral, np.rint(output).clip(0, top).astype(int)


class PIDController(AgentBase):
    """Per-zone discrete-output PID cooling control.

    Gains are expressed in "airflow level units per °C (per °C·step,
    per °C/step)".  With the default four-level VAV a ``kp`` of 1.5 means
    a 2 °C excursion commands max flow.
    """

    def __init__(
        self,
        env: Env,
        *,
        setpoint_c: float = DEFAULT_SETPOINT_C,
        kp: float = DEFAULT_KP,
        ki: float = DEFAULT_KI,
        kd: float = DEFAULT_KD,
        integral_limit: float = DEFAULT_INTEGRAL_LIMIT,
    ) -> None:
        check_positive("kp", kp, strict=False)
        check_positive("ki", ki, strict=False)
        check_positive("kd", kd, strict=False)
        check_positive("integral_limit", integral_limit)
        inner = env.unwrapped()
        self.env = inner
        self.setpoint_c = float(setpoint_c)
        self.kp, self.ki, self.kd = float(kp), float(ki), float(kd)
        self.integral_limit = float(integral_limit)
        self.n_zones = len(inner.action_space.nvec)
        self.n_levels = int(inner.action_space.nvec[0])
        self._integral = np.zeros(self.n_zones)
        self._last_error = np.zeros(self.n_zones)
        self._initialized = False

    def begin_episode(self, obs: np.ndarray) -> None:
        self._integral[:] = 0.0
        self._last_error[:] = 0.0
        self._initialized = False

    def select_action(self, obs: np.ndarray, *, explore: bool = False) -> np.ndarray:
        error = self.env.zone_temps_c - self.setpoint_c  # positive = too warm
        self._integral, levels = pid_step(
            error, self._integral, self._last_error, self._initialized,
            self.kp, self.ki, self.kd, self.integral_limit, self.n_levels - 1,
        )
        self._last_error = error
        self._initialized = True
        return levels


class FleetPID:
    """One default PID loop set per fleet row, decided in one array step.

    Bound to a :class:`~repro.sim.VectorHVACEnv` or a
    :class:`~repro.faults.FaultyVectorHVACEnv`, it senses the fleet's
    ``sensed_zone_temps_c`` and keeps its integral and last error as
    ``(n_envs, max_zones)`` matrices and its first-step flag per row.
    Every row uses the scalar controller's default setpoint, gains and
    windup limit, and is capped at that row's highest airflow level.

    ``select_actions`` returns an int64 ``(n_envs, max_zones)`` level
    matrix, padded zones at level 0.
    """

    def __init__(self, vec_env) -> None:
        self.vec_env = vec_env
        mask = vec_env.zone_mask
        # Padded zones may only reach level 0.
        self._top = np.where(mask, vec_env.n_levels[:, None] - 1, 0)
        self._integral = np.zeros(mask.shape)
        self._last_error = np.zeros(mask.shape)
        self._initialized = np.zeros((vec_env.n_envs, 1), dtype=bool)

    def begin_episode(self, obs_batch: np.ndarray) -> None:
        self._integral[:] = 0.0
        self._last_error[:] = 0.0
        self._initialized[:] = False

    def select_actions(self, obs_batch: np.ndarray, *, explore: bool = False) -> np.ndarray:
        error = self.vec_env.sensed_zone_temps_c - DEFAULT_SETPOINT_C
        self._integral, levels = pid_step(
            error, self._integral, self._last_error, self._initialized,
            DEFAULT_KP, DEFAULT_KI, DEFAULT_KD, DEFAULT_INTEGRAL_LIMIT, self._top,
        )
        self._last_error = error
        self._initialized[:] = True
        return levels
