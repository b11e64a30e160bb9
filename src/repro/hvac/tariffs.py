"""Electricity tariffs.

The paper's cost objective prices HVAC energy under realistic tariffs; the
interesting control behaviour (pre-cooling before the expensive window)
only exists when price varies with time.  Three structures are provided:

* :class:`FlatTariff` — constant $/kWh.
* :class:`TimeOfUseTariff` — weekday peak window at a higher rate.
* :class:`DemandResponseTariff` — a base tariff plus event hours during
  which price is multiplied (utility DR events, the paper's motivating
  smart-grid scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.utils.validation import check_in_range, check_positive


class Tariff:
    """Interface: electricity price as a function of calendar time."""

    def price_per_kwh(self, day_of_year: int, hour_of_day: float) -> float:
        """Price in $/kWh at the given local time."""
        raise NotImplementedError


@dataclass(frozen=True)
class FlatTariff(Tariff):
    """Constant energy price."""

    rate_per_kwh: float = 0.12

    def __post_init__(self) -> None:
        check_positive("rate_per_kwh", self.rate_per_kwh)

    def price_per_kwh(self, day_of_year: int, hour_of_day: float) -> float:
        return self.rate_per_kwh


@dataclass(frozen=True)
class TimeOfUseTariff(Tariff):
    """Weekday peak-window pricing (day 1 = Monday, weekends off-peak)."""

    off_peak_per_kwh: float = 0.08
    peak_per_kwh: float = 0.28
    peak_start_hour: float = 13.0
    peak_end_hour: float = 19.0

    def __post_init__(self) -> None:
        check_positive("off_peak_per_kwh", self.off_peak_per_kwh)
        check_positive("peak_per_kwh", self.peak_per_kwh)
        check_in_range("peak_start_hour", self.peak_start_hour, 0.0, 24.0)
        check_in_range("peak_end_hour", self.peak_end_hour, 0.0, 24.0)
        if self.peak_end_hour <= self.peak_start_hour:
            raise ValueError(
                f"peak_end_hour ({self.peak_end_hour}) must be after "
                f"peak_start_hour ({self.peak_start_hour})"
            )
        if self.peak_per_kwh < self.off_peak_per_kwh:
            raise ValueError("peak price must be >= off-peak price")

    def is_peak(self, day_of_year: int, hour_of_day: float) -> bool:
        """Whether the time falls in the weekday peak window."""
        weekend = (day_of_year - 1) % 7 >= 5
        if weekend:
            return False
        return self.peak_start_hour <= hour_of_day < self.peak_end_hour

    def price_per_kwh(self, day_of_year: int, hour_of_day: float) -> float:
        if self.is_peak(day_of_year, hour_of_day):
            return self.peak_per_kwh
        return self.off_peak_per_kwh


@dataclass(frozen=True)
class DemandResponseTariff(Tariff):
    """A base tariff with utility demand-response event multipliers.

    During an event (specific days, specific hour window) the base price
    is multiplied by ``event_multiplier`` — the paper's smart-grid
    motivation, where the building should shed or shift load.
    """

    base: Tariff = field(default_factory=TimeOfUseTariff)
    event_days: FrozenSet[int] = frozenset()
    event_start_hour: float = 14.0
    event_end_hour: float = 18.0
    event_multiplier: float = 4.0

    def __post_init__(self) -> None:
        check_in_range("event_start_hour", self.event_start_hour, 0.0, 24.0)
        check_in_range("event_end_hour", self.event_end_hour, 0.0, 24.0)
        if self.event_end_hour <= self.event_start_hour:
            raise ValueError("event_end_hour must be after event_start_hour")
        check_positive("event_multiplier", self.event_multiplier)
        object.__setattr__(self, "event_days", frozenset(int(d) for d in self.event_days))

    def in_event(self, day_of_year: int, hour_of_day: float) -> bool:
        """Whether the time falls inside a demand-response event."""
        return (
            day_of_year in self.event_days
            and self.event_start_hour <= hour_of_day < self.event_end_hour
        )

    def price_per_kwh(self, day_of_year: int, hour_of_day: float) -> float:
        price = self.base.price_per_kwh(day_of_year, hour_of_day)
        if self.in_event(day_of_year, hour_of_day):
            price *= self.event_multiplier
        return price
