"""Receding-horizon MPC baseline over an identified (or true) zone model.

The classical model-based alternative to the paper's model-free DRL: at
each control step, enumerate airflow-level sequences over a short
horizon, roll each out through the zone model against the weather
forecast, score total (cost + comfort penalty) exactly as the
environment's reward does, apply the first action of the best sequence,
and re-plan.

Single-zone only: an exhaustive ``levels**horizon`` search is the honest
textbook formulation, and its exponential blow-up in zones is precisely
why the multi-zone story needs either factorization or model-free RL.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

import numpy as np

from repro.core.agent import AgentBase
from repro.env.core import Env
from repro.env.hvac_env import HVACEnv
from repro.env.kernel import outcome, plant
from repro.sysid.fit import FirstOrderZoneModel
from repro.utils.validation import check_positive


class MPCController(AgentBase):
    """Exhaustive receding-horizon planner for single-zone buildings.

    Parameters
    ----------
    env:
        The environment to control (single-zone ``HVACEnv``).
    model:
        An identified :class:`FirstOrderZoneModel`.  ``None`` plans with
        a model fitted implicitly from the true building parameters —
        the "perfect model" MPC reference.
    horizon:
        Planning horizon in control steps; the search enumerates
        ``n_levels**horizon`` sequences, so keep it modest (4 by default
        = 256 rollouts per step with a 4-level VAV).
    """

    def __init__(
        self,
        env: Env,
        *,
        model: Optional[FirstOrderZoneModel] = None,
        horizon: int = 4,
        max_sequences: int = 100_000,
    ) -> None:
        check_positive("horizon", horizon)
        inner = env.unwrapped()
        if not isinstance(inner, HVACEnv):
            raise TypeError(
                f"MPCController requires an HVACEnv, got {type(inner).__name__}"
            )
        if inner.building.n_zones != 1:
            raise ValueError(
                "MPCController supports single-zone buildings only "
                f"(got {inner.building.n_zones} zones); the exponential search "
                "is exactly what breaks in multi-zone — use the factored DRL agent"
            )
        self.env = inner
        self.horizon = int(horizon)
        n_levels = int(inner.action_space.nvec[0])
        if n_levels**self.horizon > max_sequences:
            raise ValueError(
                f"{n_levels}**{self.horizon} sequences exceed limit {max_sequences}"
            )
        self.model = model if model is not None else self._true_model(inner)
        self._sequences = np.array(
            list(product(range(n_levels), repeat=self.horizon)), dtype=int
        )

    @staticmethod
    def _true_model(env: HVACEnv) -> FirstOrderZoneModel:
        """Build the oracle model straight from the true zone parameters."""
        zone = env.building.zones[0]
        schedule = env.building.schedules[0]
        # Probe the schedule at canonical occupied/unoccupied times.
        occupied_gain = schedule.gains_w_per_m2(1, 12.0) * zone.floor_area_m2
        base_gain = schedule.gains_w_per_m2(1, 2.0) * zone.floor_area_m2
        return FirstOrderZoneModel(
            capacitance_j_per_k=zone.capacitance_j_per_k,
            ua_w_per_k=zone.ua_ambient_w_per_k,
            solar_aperture_m2=zone.solar_aperture_m2,
            gains_occupied_w=occupied_gain,
            gains_base_w=base_gain,
            dt_seconds=env.weather.dt_seconds,
            residual_rmse_c=0.0,
        )

    # ------------------------------------------------------------- planning
    def _plan_inputs(self) -> dict:
        """Gather the weather/occupancy/price lookahead for the horizon
        from the env's time tables (:mod:`repro.env.observation`); past
        the trace end the last sample persists."""
        tab = self.env._tables
        idx = np.minimum(self.env.time_index + np.arange(self.horizon), tab.last[0])
        temp_out, ghi, price = tab.exo[0, idx].T
        return {
            "temp_out": temp_out,
            "ghi": ghi,
            "occupied": tab.occupied[0, idx, 0],
            "price": price,
        }

    def _scores(self, inputs: dict, temp0: float) -> np.ndarray:
        """Total reward of every candidate sequence under the model.

        Each horizon step scores all sequences at once: they are the
        rows of one call of the kernel's plant and reward functions
        (:mod:`repro.env.kernel`), with the zone model stepping their
        temperatures in between.
        """
        env = self.env
        cols = env._cols
        dt = env.weather.dt_seconds
        temps = np.full((len(self._sequences), 1), temp0)
        total = np.zeros(len(self._sequences))
        for k in range(self.horizon):
            temp_out = float(inputs["temp_out"][k])
            occupied = bool(inputs["occupied"][k])
            share, heat, power_w = plant(
                cols, self._sequences[:, k : k + 1], temps, temp_out
            )
            temps = self.model.step(
                temps, temp_out, float(inputs["ghi"][k]), heat, occupied, dt
            )
            total += outcome(
                cols, temps, occupied, share, power_w, float(inputs["price"][k]), dt
            ).reward
        return total

    def select_action(self, obs: np.ndarray, *, explore: bool = False) -> np.ndarray:
        """Re-plan from the current state and return the first action."""
        scores = self._scores(self._plan_inputs(), float(self.env.zone_temps_c[0]))
        # argmax keeps the first of tied sequences, in enumeration order.
        return self._sequences[int(np.argmax(scores)), :1].copy()
