"""Comfort band.

The paper's comfort constraint keeps zone temperature inside a band while
the zone is occupied; excursions are penalized proportionally to their
magnitude.  Outside occupied hours a much wider setback band applies (the
building must not freeze or bake, but comfort is not at stake).  The
violation arithmetic is :func:`repro.env.kernel.outcome`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class ComfortBand:
    """Occupied and setback temperature bands, °C."""

    occupied_low_c: float = 22.0
    occupied_high_c: float = 26.0
    setback_low_c: float = 16.0
    setback_high_c: float = 32.0

    def __post_init__(self) -> None:
        for name in (
            "occupied_low_c",
            "occupied_high_c",
            "setback_low_c",
            "setback_high_c",
        ):
            check_in_range(name, getattr(self, name), -20.0, 50.0)
        if self.occupied_high_c <= self.occupied_low_c:
            raise ValueError("occupied band must have high > low")
        if self.setback_high_c <= self.setback_low_c:
            raise ValueError("setback band must have high > low")
        if (
            self.setback_low_c > self.occupied_low_c
            or self.setback_high_c < self.occupied_high_c
        ):
            raise ValueError("setback band must contain the occupied band")
