"""Building: zones + RC network + schedules composed into one simulator.

A :class:`Building` owns the static description (zones, conductances,
schedules) and the per-zone solar and internal gains.  It has no notion
of the HVAC plant or of rewards: a control step — plant, RC advance,
comfort and reward — is the kernel in :mod:`repro.env.kernel`, which
steps the building's :class:`~repro.building.thermal.RCNetwork`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.building.occupancy import Schedule
from repro.building.thermal import RCNetwork
from repro.building.zone import ZoneConfig


class Building:
    """A multi-zone building with solar and internal gains.

    Parameters
    ----------
    zones:
        Per-zone static thermal configuration.
    ua_interzone:
        Symmetric zone-to-zone conductance matrix, W/K (zero diagonal).
    schedules:
        One internal-gain schedule per zone.
    """

    def __init__(
        self,
        zones: Sequence[ZoneConfig],
        ua_interzone: np.ndarray,
        schedules: Sequence[Schedule],
    ) -> None:
        if not zones:
            raise ValueError("building needs at least one zone")
        if len(schedules) != len(zones):
            raise ValueError(
                f"need one schedule per zone: {len(schedules)} schedules "
                f"for {len(zones)} zones"
            )
        names = [z.name for z in zones]
        if len(set(names)) != len(names):
            raise ValueError(f"zone names must be unique, got {names}")

        self.zones: List[ZoneConfig] = list(zones)
        self.schedules: List[Schedule] = list(schedules)
        self.network = RCNetwork(
            capacitance=np.array([z.capacitance_j_per_k for z in zones]),
            ua_ambient=np.array([z.ua_ambient_w_per_k for z in zones]),
            ua_interzone=np.asarray(ua_interzone, dtype=np.float64),
        )

    # ------------------------------------------------------------ properties
    @property
    def n_zones(self) -> int:
        """Number of zones."""
        return len(self.zones)

    @property
    def zone_names(self) -> List[str]:
        """Zone names in index order."""
        return [z.name for z in self.zones]

    @property
    def floor_area_m2(self) -> float:
        """Total conditioned floor area."""
        return sum(z.floor_area_m2 for z in self.zones)

    # --------------------------------------------------------------- gains
    def solar_gains_w(self, ghi_w_m2: float) -> np.ndarray:
        """Per-zone solar gains (W) for a global horizontal irradiance (a
        per-sample reference for the kernel's ``aperture * ghi`` rows)."""
        if ghi_w_m2 < 0:
            raise ValueError(f"ghi must be >= 0, got {ghi_w_m2}")
        return np.array([z.solar_aperture_m2 * ghi_w_m2 for z in self.zones])

    def internal_gains_w(self, day_of_year: int, hour_of_day: float) -> np.ndarray:
        """Per-zone internal gains (W) from the occupancy schedules (a
        per-sample reference for the ``gains`` rows of ``time_tables``)."""
        return np.array(
            [
                sched.gains_w_per_m2(day_of_year, hour_of_day) * zone.floor_area_m2
                for zone, sched in zip(self.zones, self.schedules)
            ]
        )

    def __repr__(self) -> str:
        return f"Building(zones={self.zone_names}, area={self.floor_area_m2:.0f} m2)"
