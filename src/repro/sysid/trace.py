"""Operational-trace collection for system identification.

An :class:`OperationalTrace` is what a building-management system would
log: for each control step, the zone temperature before and after, the
weather, the occupancy flag, and the HVAC heat delivered.  Storing each
transition as a (before, after) pair keeps the dataset valid across
episode restarts (a reset teleports the state, so a continuous series
would contain spurious transitions).

:func:`collect_trace` produces a trace by exciting an
:class:`~repro.env.hvac_env.HVACEnv` with a (by default random)
excitation policy — persistent excitation being the classical
requirement for identifiability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.agent import AgentBase
from repro.env.hvac_env import HVACEnv
from repro.env.kernel import plant
from repro.utils.seeding import RandomState
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class OperationalTrace:
    """Logged transitions for one zone (all arrays share length ``n``)."""

    dt_seconds: float
    temp_before_c: np.ndarray
    temp_after_c: np.ndarray
    temp_out_c: np.ndarray
    ghi_w_m2: np.ndarray
    hvac_heat_w: np.ndarray
    occupied: np.ndarray

    def __post_init__(self) -> None:
        check_positive("dt_seconds", self.dt_seconds)
        n = len(self.temp_before_c)
        if n == 0:
            raise ValueError("trace must contain at least one transition")
        for name in (
            "temp_after_c",
            "temp_out_c",
            "ghi_w_m2",
            "hvac_heat_w",
            "occupied",
        ):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have {n} entries, one per transition")

    def __len__(self) -> int:
        return len(self.temp_before_c)

    def delta_t(self) -> np.ndarray:
        """Per-step temperature change (the regression target)."""
        return self.temp_after_c - self.temp_before_c


def collect_trace(
    env: HVACEnv,
    *,
    n_steps: int,
    policy: AgentBase | None = None,
    zone: int = 0,
    rng: RandomState | int | None = None,
) -> OperationalTrace:
    """Run ``env`` under an excitation policy and log zone ``zone``.

    The default policy is uniform-random airflow — maximally exciting.
    Episodes restart transparently until ``n_steps`` transitions are
    logged; restarts do not create spurious transitions because each
    transition carries its own before/after pair.
    """
    check_positive("n_steps", n_steps)
    if not 0 <= zone < env.building.n_zones:
        raise ValueError(f"zone {zone} out of range for {env.building.n_zones} zones")
    if policy is None:
        # Imported lazily: repro.baselines imports repro.sysid for the MPC
        # controller, so a module-level import here would be circular.
        from repro.baselines.random_policy import RandomController

        policy = RandomController(env.action_space, rng=rng)

    before, after = [], []
    temp_out, ghi, hvac, occupied = [], [], [], []
    obs = env.reset()
    policy.begin_episode(obs)
    while len(before) < n_steps:
        pre_temp = float(env.zone_temps_c[zone])
        action = policy.select_action(obs)
        levels = np.atleast_1d(np.asarray(action, dtype=int))
        _, heat, _ = plant(
            env._cols,
            levels[None],
            env.zone_temps_c[None],
            env.weather.temp_out_c[env.time_index],
        )
        obs, _, done, info = env.step(action)
        before.append(pre_temp)
        after.append(float(info["temps_c"][zone]))
        temp_out.append(float(info["temp_out_c"]))
        ghi.append(float(info["ghi_w_m2"]))
        hvac.append(float(heat[0, zone]))
        occupied.append(bool(info["occupied"][zone]))
        if done and len(before) < n_steps:
            obs = env.reset()
            policy.begin_episode(obs)
    return OperationalTrace(
        dt_seconds=env.weather.dt_seconds,
        temp_before_c=np.asarray(before),
        temp_after_c=np.asarray(after),
        temp_out_c=np.asarray(temp_out),
        ghi_w_m2=np.asarray(ghi),
        hvac_heat_w=np.asarray(hvac),
        occupied=np.asarray(occupied, dtype=bool),
    )
