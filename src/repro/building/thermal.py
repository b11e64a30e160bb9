"""The multi-zone RC thermal network and its integrator.

State is the vector of zone temperatures ``T``.  The continuous dynamics
are the zone-air heat balance

    C_i dT_i/dt = UA_i (T_out - T_i)
                + Σ_j U_ij (T_j - T_i)
                + Q_i(t)

with ``Q_i`` collecting solar, internal, and HVAC heat flows (W, positive
heats the zone).  Because the network is linear and inputs are zero-order
held over a control step, the step update is computed **exactly** via the
matrix exponential ``T(t+dt) = e^{-M dt} T + M^{-1}(I - e^{-M dt}) b``
with the propagator cached per step length.  Networks whose ``M`` is
singular (a zone fully isolated from ambient through any path) fall back
to sub-stepped explicit Euler inside the stability limit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy.linalg import expm

from repro.utils.validation import check_finite, check_positive


class RCNetwork:
    """Linear RC thermal network over ``n`` zones.

    Parameters
    ----------
    capacitance:
        Zone capacitances, J/K, shape ``(n,)``, all > 0.
    ua_ambient:
        Envelope conductances to ambient, W/K, shape ``(n,)``, >= 0.
    ua_interzone:
        Symmetric conductance matrix between zones, W/K, shape ``(n, n)``,
        zero diagonal, >= 0 entries.
    """

    def __init__(
        self,
        capacitance: np.ndarray,
        ua_ambient: np.ndarray,
        ua_interzone: np.ndarray,
    ) -> None:
        capacitance = np.asarray(capacitance, dtype=np.float64)
        ua_ambient = np.asarray(ua_ambient, dtype=np.float64)
        ua_interzone = np.asarray(ua_interzone, dtype=np.float64)
        n = capacitance.shape[0]
        if capacitance.ndim != 1 or n == 0:
            raise ValueError("capacitance must be a non-empty 1-D array")
        if np.any(capacitance <= 0):
            raise ValueError("all capacitances must be > 0")
        if ua_ambient.shape != (n,) or np.any(ua_ambient < 0):
            raise ValueError(f"ua_ambient must be shape ({n},) with entries >= 0")
        if ua_interzone.shape != (n, n):
            raise ValueError(f"ua_interzone must be shape ({n}, {n})")
        if np.any(ua_interzone < 0):
            raise ValueError("ua_interzone entries must be >= 0")
        if not np.allclose(ua_interzone, ua_interzone.T):
            raise ValueError("ua_interzone must be symmetric")
        if np.any(np.diag(ua_interzone) != 0):
            raise ValueError("ua_interzone diagonal must be zero")

        self.n_zones = n
        self.capacitance = capacitance
        self.ua_ambient = ua_ambient
        self.ua_interzone = ua_interzone
        # Row sums give each zone's total conductance to its neighbours.
        self._ua_row_sum = ua_interzone.sum(axis=1)
        # Stability limit of explicit Euler: dt < 2 / max_i (UA_total_i/C_i).
        rate = (ua_ambient + self._ua_row_sum) / capacitance
        self._max_rate = float(rate.max())
        # Continuous dynamics dT/dt = -M T + b;  M is constant, so the
        # exact one-step propagator e^{-M dt} can be cached per dt.
        self._m_matrix = (
            np.diag((ua_ambient + self._ua_row_sum) / capacitance)
            - ua_interzone / capacitance[:, None]
        )
        self._m_inverse: Optional[np.ndarray]
        try:
            self._m_inverse = np.linalg.inv(self._m_matrix)
        except np.linalg.LinAlgError:
            self._m_inverse = None
        self._propagator_cache: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------ dynamics
    def derivative(
        self, temps: np.ndarray, temp_out: float, heat_w: np.ndarray
    ) -> np.ndarray:
        """dT/dt (K/s) for zone temperatures ``temps`` and heat inputs."""
        temps = np.asarray(temps, dtype=np.float64)
        heat_w = np.asarray(heat_w, dtype=np.float64)
        if temps.shape != (self.n_zones,) or heat_w.shape != (self.n_zones,):
            raise ValueError(
                f"temps and heat_w must have shape ({self.n_zones},), "
                f"got {temps.shape} and {heat_w.shape}"
            )
        envelope = self.ua_ambient * (temp_out - temps)
        interzone = self.ua_interzone @ temps - self._ua_row_sum * temps
        return (envelope + interzone + heat_w) / self.capacitance

    def stable_substep_seconds(self, safety: float = 0.25) -> float:
        """A sub-step length that keeps explicit Euler well inside stability."""
        if self._max_rate == 0.0:
            return float("inf")
        return safety * 2.0 / self._max_rate

    def _propagator(self, dt_seconds: float) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(e^{-M dt}, M^{-1}(I - e^{-M dt}))`` for a step length."""
        key = float(dt_seconds)
        if key not in self._propagator_cache:
            decay = expm(-self._m_matrix * key)
            assert self._m_inverse is not None
            gain = self._m_inverse @ (np.eye(self.n_zones) - decay)
            self._propagator_cache[key] = (decay, gain)
        return self._propagator_cache[key]

    def step(
        self,
        temps: np.ndarray,
        temp_out: float,
        heat_w: np.ndarray,
        dt_seconds: float,
    ) -> np.ndarray:
        """Advance zone temperatures by ``dt_seconds`` (inputs held constant).

        Inputs (ambient, heat flows) are zero-order held over the whole
        control step, matching how a 15-minute HVAC decision is actually
        applied.  The update is the exact solution of the linear ODE; only
        degenerate (ambient-isolated) networks use Euler sub-stepping.
        Envs step through the kernel's ``advance``; this is its reference.
        """
        check_positive("dt_seconds", dt_seconds)
        temps = check_finite("temps", temps).astype(np.float64).copy()
        heat_w = np.asarray(heat_w, dtype=np.float64)
        if heat_w.shape != (self.n_zones,):
            raise ValueError(
                f"heat_w must have shape ({self.n_zones},), got {heat_w.shape}"
            )
        if self._m_inverse is not None:
            decay, gain = self._propagator(dt_seconds)
            forcing = (self.ua_ambient * temp_out + heat_w) / self.capacitance
            return decay @ temps + gain @ forcing
        # Fallback: sub-stepped explicit Euler inside the stability limit.
        limit = self.stable_substep_seconds()
        n_sub = max(1, int(np.ceil(dt_seconds / min(limit, dt_seconds))))
        h = dt_seconds / n_sub
        for _ in range(n_sub):
            temps += h * self.derivative(temps, temp_out, heat_w)
        return temps

    def steady_state(self, temp_out: float, heat_w: np.ndarray) -> np.ndarray:
        """Equilibrium temperatures for constant ambient and heat inputs.

        Solves ``0 = UA (T_out - T) + U_iz coupling + Q``; requires every
        zone to be connected (possibly through neighbours) to ambient.
        """
        heat_w = np.asarray(heat_w, dtype=np.float64)
        lhs = np.diag(self.ua_ambient + self._ua_row_sum) - self.ua_interzone
        rhs = self.ua_ambient * temp_out + heat_w
        try:
            return np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "steady state undefined: a zone is isolated from ambient"
            ) from exc
