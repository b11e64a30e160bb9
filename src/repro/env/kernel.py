"""The control-step kernel: one MDP transition over stacked ``(n, z)`` rows.

Airflow levels → VAV heat and electric power → RC zone temperatures →
reward of energy cost plus λ·comfort violation: this module is the only
copy of that arithmetic.  Callers differ in what a row is — a fleet
member (:class:`~repro.sim.vector_env.VectorHVACEnv`), the one env of
:class:`~repro.env.hvac_env.HVACEnv`, or a candidate action of the
lookahead and MPC baselines.  Static per-env parameters are the columns
of a :class:`StepColumns`; a one-row set broadcasts against any number
of candidate rows.  Zone arrays are padded to the widest building and
masked by ``zone_mask``.  Nothing here imports ``repro.env`` or
``repro.sim``, so both can import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.hvac.vav import AIR_CP_J_PER_KG_K


@dataclass(frozen=True)
class StepColumns:
    """Static step parameters of ``n`` envs, one row each.

    Attributes
    ----------
    flow_table:
        ``(n, max_levels)`` airflow (kg/s) of each level, zero-padded.
    supply_temp, oaf, recirc, cop:
        ``(n,)`` supply-air temperature, outdoor-air fraction, its
        complement ``1 - oaf`` (the return-air fraction) and COP.
    fan_scale:
        ``(n,)`` ``fan_power_max_w * n_zones`` (fan power at full flow).
    plant_max_flow:
        ``(n,)`` ``max_flow_kg_s * n_zones`` (the cube law's full flow).
    aperture:
        ``(n, max_zones)`` solar aperture per zone, m².
    occ_low, occ_high, set_low, set_high:
        ``(n, 1)`` occupied and setback comfort bands, °C.
    cost_weight, comfort_weight:
        ``(n,)`` reward weights.
    zone_mask, n_zones:
        ``(n, max_zones)`` real-zone mask and ``(n,)`` zone counts.
    equal_share:
        ``(n, max_zones)`` each real zone's share of the energy cost when
        the plant is off (``1 / n_zones``).
    row_index:
        ``(n, 1)`` row numbers, for gathering per-row table entries.
    """

    flow_table: np.ndarray
    supply_temp: np.ndarray
    oaf: np.ndarray
    recirc: np.ndarray
    cop: np.ndarray
    fan_scale: np.ndarray
    plant_max_flow: np.ndarray
    aperture: np.ndarray
    occ_low: np.ndarray
    occ_high: np.ndarray
    set_low: np.ndarray
    set_high: np.ndarray
    cost_weight: np.ndarray
    comfort_weight: np.ndarray
    zone_mask: np.ndarray
    n_zones: np.ndarray
    equal_share: np.ndarray
    row_index: np.ndarray


def step_columns(envs: Sequence) -> StepColumns:
    """Stack the static step parameters of ``envs``.

    Each env needs ``building``, ``vav`` (with a ``config``), ``comfort``
    and ``config`` attributes — the :class:`~repro.env.hvac_env.HVACEnv`
    surface.
    """
    n = len(envs)
    zones = [env.building.n_zones for env in envs]
    vavs = [env.vav.config for env in envs]
    bands = [env.comfort for env in envs]
    z = max(zones)
    flow_table = np.zeros((n, max(cfg.n_levels for cfg in vavs)))
    aperture = np.zeros((n, z))
    for k, (env, cfg) in enumerate(zip(envs, vavs)):
        flow_table[k, : cfg.n_levels] = cfg.flow_levels_kg_s
        aperture[k, : zones[k]] = [zn.solar_aperture_m2 for zn in env.building.zones]
    n_zones = np.array(zones, dtype=int)
    zone_mask = np.arange(z) < n_zones[:, None]

    def column(values, shape=(n,)):
        return np.array(list(values), dtype=float).reshape(shape)

    oaf = column(cfg.outdoor_air_fraction for cfg in vavs)
    return StepColumns(
        flow_table=flow_table,
        supply_temp=column(cfg.supply_temp_c for cfg in vavs),
        oaf=oaf,
        recirc=1.0 - oaf,
        cop=column(cfg.cop for cfg in vavs),
        fan_scale=column(cfg.fan_power_max_w * m for cfg, m in zip(vavs, zones)),
        plant_max_flow=column(cfg.max_flow_kg_s * m for cfg, m in zip(vavs, zones)),
        aperture=aperture,
        occ_low=column((b.occupied_low_c for b in bands), (n, 1)),
        occ_high=column((b.occupied_high_c for b in bands), (n, 1)),
        set_low=column((b.setback_low_c for b in bands), (n, 1)),
        set_high=column((b.setback_high_c for b in bands), (n, 1)),
        cost_weight=column(env.config.cost_weight for env in envs),
        comfort_weight=column(env.config.comfort_weight for env in envs),
        zone_mask=zone_mask,
        n_zones=n_zones,
        equal_share=zone_mask / n_zones[:, None],
        row_index=np.arange(n)[:, None],
    )


def require_exact_propagator(network, k: int = 0) -> None:
    """Reject an RC network the kernel's :func:`advance` cannot step.

    The kernel integrates with the exact matrix-exponential propagator,
    which needs a non-singular dynamics matrix (every zone coupled to
    ambient through some path).
    """
    if network._m_inverse is None:
        raise ValueError(
            f"network {k} has a singular dynamics matrix (a zone is "
            "isolated from ambient); batched stepping requires the "
            "exact-propagator path"
        )


# ------------------------------------------------------------------ kernel
def plant(
    cols: StepColumns, levels: np.ndarray, temps: np.ndarray, temp_out
) -> tuple:
    """VAV plant response to airflow ``levels`` at zone ``temps``.

    Returns ``(share, hvac_heat_w, power_w)``: each zone's share of the
    plant's airflow (an equal share when the plant is off), the heat the
    supply air delivers per zone (negative = cooling) and the plant's
    electric power, W.  Fan power follows the affinity (cube) law on the
    total-flow fraction; the coil cools the mixed air — flow-weighted
    return air blended with ``oaf`` of ambient — down to supply
    temperature, and is off under free cooling.
    """
    supply = cols.supply_temp
    oaf = cols.oaf
    flows = cols.flow_table[cols.row_index, levels]
    hvac_heat = flows * AIR_CP_J_PER_KG_K * (supply[:, None] - temps)
    total_flow = flows.sum(axis=1)
    on = total_flow > 0.0
    frac = total_flow / cols.plant_max_flow
    fan_power = cols.fan_scale * np.power(frac, 3)
    safe_total = np.where(on, total_flow, 1.0)
    share = np.where(on[:, None], flows / safe_total[:, None], cols.equal_share)
    return_temp = (flows * temps).sum(axis=1) / safe_total
    mixed = cols.recirc * return_temp + oaf * temp_out
    delta = np.maximum(mixed - supply, 0.0)
    # With the plant off, total_flow is 0 and so is the coil term.
    coil_power = total_flow * AIR_CP_J_PER_KG_K * delta / cols.cop
    return share, hvac_heat, fan_power + coil_power


def advance(
    decay: np.ndarray,
    gain: np.ndarray,
    temps: np.ndarray,
    temp_out: np.ndarray,
    heat_w: np.ndarray,
    cap: np.ndarray,
    ua: np.ndarray,
) -> np.ndarray:
    """One zero-order-held RC step for stacked rows.

    ``decay``/``gain`` are ``(n, z, z)`` propagators (or one ``(z, z)``
    pair shared by every row), ``temps``/``heat_w`` are ``(n, z)``,
    ``cap``/``ua`` broadcast against them and ``temp_out`` is ``(n,)``.
    """
    forcing = (ua * temp_out[:, None] + heat_w) / cap
    return (
        np.matmul(decay, temps[..., None])[..., 0]
        + np.matmul(gain, forcing[..., None])[..., 0]
    )


class Outcome(NamedTuple):
    """Cost, comfort and reward of one step, per row."""

    energy_kwh: np.ndarray
    cost_usd: np.ndarray
    violations: np.ndarray
    violation_deg_hours: np.ndarray
    reward: np.ndarray
    reward_per_zone: np.ndarray


def outcome(
    cols: StepColumns,
    new_temps: np.ndarray,
    occupied,
    share: np.ndarray,
    power_w: np.ndarray,
    price,
    dt_seconds: float,
) -> Outcome:
    """Price the energy, score comfort on end-of-step temperatures, and
    split the reward.

    The reward is ``-cost_weight·cost - comfort_weight·violation
    degree-hours``.  Its per-zone split sums to it: energy cost goes to
    zones by :func:`plant`'s airflow ``share``, the comfort penalty to
    the zone that violated.
    """
    dt_hours = dt_seconds / 3600.0
    comfort_w = cols.comfort_weight
    energy_kwh = power_w * dt_seconds / 3.6e6
    cost_usd = energy_kwh * price

    low = np.where(occupied, cols.occ_low, cols.set_low)
    high = np.where(occupied, cols.occ_high, cols.set_high)
    violations = np.maximum(0.0, np.maximum(new_temps - high, low - new_temps))
    violations *= cols.zone_mask  # padded zones score 0 (violations are >= 0)
    violation_deg_hours = violations.sum(axis=1) * dt_hours

    weighted_cost = -cols.cost_weight * cost_usd
    reward = weighted_cost - comfort_w * violation_deg_hours
    reward_per_zone = (
        weighted_cost[:, None] * share - comfort_w[:, None] * violations * dt_hours
    )
    return Outcome(
        energy_kwh, cost_usd, violations, violation_deg_hours, reward, reward_per_zone
    )


class StepRows(NamedTuple):
    """Everything one control step computes, per row."""

    new_temps: np.ndarray
    power_w: np.ndarray
    outcome: Outcome


def step_rows(
    cols: StepColumns,
    network,
    decay: np.ndarray,
    gain: np.ndarray,
    levels: np.ndarray,
    temps: np.ndarray,
    temp_out: np.ndarray,
    ghi: np.ndarray,
    price,
    occupied: np.ndarray,
    gains: np.ndarray,
    dt_seconds: float,
) -> StepRows:
    """One full control step: plant, RC advance, then :func:`outcome`.

    ``network`` supplies ``capacitance`` and ``ua_ambient`` (an
    :class:`~repro.building.thermal.RCNetwork` or a
    :class:`~repro.sim.batch_thermal.BatchRCNetwork`), ``decay``/``gain``
    its propagators for ``dt_seconds``.  ``temp_out``/``ghi`` are ``(n,)``;
    ``occupied``/``gains`` (W) broadcast against ``(n, z)``.  Heat inputs —
    solar, internal and HVAC — are zero-order held over the step.
    """
    share, hvac_heat, power_w = plant(cols, levels, temps, temp_out)
    heat = cols.aperture * ghi[:, None] + gains + hvac_heat
    new_temps = advance(
        decay, gain, temps, temp_out, heat, network.capacitance, network.ua_ambient
    )
    return StepRows(
        new_temps,
        power_w,
        outcome(cols, new_temps, occupied, share, power_w, price, dt_seconds),
    )
