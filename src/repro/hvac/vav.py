"""Variable-air-volume (VAV) HVAC plant parameters.

Thermal side: supply air at ``supply_temp_c`` enters zone ``i`` at mass
flow ``m_i``, so the zone receives ``m_i * cp * (T_supply - T_zone_i)``
watts (negative = cooling).

Electric side (what the tariff prices):

* **Fan power** follows the affinity (cube) law on the total-flow
  fraction — the physics behind why VAV saves energy at part load.
* **Coil load** is the enthalpy drop from the mixed-air condition to the
  supply condition: return air (flow-weighted zone temperature) blended
  with ``outdoor_air_fraction`` of ambient air, cooled to supply
  temperature, divided by the chiller COP to get electric power.

The arithmetic is :func:`repro.env.kernel.plant`, the plant stage of the
control-step kernel; this module holds the parameters it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.utils.validation import check_in_range, check_positive

AIR_CP_J_PER_KG_K = 1006.0  # specific heat of air at HVAC conditions


@dataclass(frozen=True)
class VAVConfig:
    """Static parameters of the VAV plant.

    Attributes
    ----------
    flow_levels_kg_s:
        The discrete airflow levels (kg/s) each zone's VAV box can take;
        level 0 is conventionally "off".  This is the per-zone action set.
    supply_temp_c:
        Supply-air temperature leaving the cooling coil.
    fan_power_max_w:
        Fan electric power per zone at maximum airflow (cube law below).
    outdoor_air_fraction:
        Ventilation fraction of outdoor air in the mixed-air stream.
    cop:
        Chiller coefficient of performance (thermal W removed per
        electric W).
    """

    flow_levels_kg_s: Tuple[float, ...] = (0.0, 0.15, 0.30, 0.45)
    supply_temp_c: float = 12.8
    fan_power_max_w: float = 400.0
    outdoor_air_fraction: float = 0.3
    cop: float = 3.0

    def __post_init__(self) -> None:
        levels = tuple(float(f) for f in self.flow_levels_kg_s)
        if len(levels) < 2:
            raise ValueError("need at least two flow levels (off + one on)")
        if levels[0] != 0.0:
            raise ValueError(f"first flow level must be 0 (off), got {levels[0]}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"flow levels must be strictly increasing, got {levels}")
        object.__setattr__(self, "flow_levels_kg_s", levels)
        check_in_range("supply_temp_c", self.supply_temp_c, 0.0, 30.0)
        check_positive("fan_power_max_w", self.fan_power_max_w, strict=False)
        check_in_range("outdoor_air_fraction", self.outdoor_air_fraction, 0.0, 1.0)
        check_positive("cop", self.cop)

    @property
    def n_levels(self) -> int:
        """Number of discrete airflow levels per zone."""
        return len(self.flow_levels_kg_s)

    @property
    def max_flow_kg_s(self) -> float:
        """The top airflow level of one zone."""
        return self.flow_levels_kg_s[-1]


class VAVSystem:
    """The VAV plant serving ``n_zones`` zones."""

    def __init__(self, config: VAVConfig, n_zones: int) -> None:
        if n_zones < 1:
            raise ValueError(f"n_zones must be >= 1, got {n_zones}")
        self.config = config
        self.n_zones = int(n_zones)

    @property
    def n_levels(self) -> int:
        """Discrete airflow levels per zone (the per-zone action count)."""
        return self.config.n_levels
