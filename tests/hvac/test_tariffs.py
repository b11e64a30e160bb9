"""Tests for electricity tariffs."""

import pytest

from repro.hvac import DemandResponseTariff, FlatTariff, TimeOfUseTariff


class TestFlat:
    def test_constant(self):
        t = FlatTariff(rate_per_kwh=0.15)
        assert t.price_per_kwh(1, 0.0) == 0.15
        assert t.price_per_kwh(200, 18.0) == 0.15

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FlatTariff(rate_per_kwh=0.0)


class TestTimeOfUse:
    def test_weekday_peak(self):
        t = TimeOfUseTariff()
        assert t.is_peak(1, 14.0)  # Monday 2pm
        assert t.price_per_kwh(1, 14.0) == t.peak_per_kwh

    def test_weekday_off_peak(self):
        t = TimeOfUseTariff()
        assert not t.is_peak(1, 8.0)
        assert t.price_per_kwh(1, 8.0) == t.off_peak_per_kwh

    def test_weekend_always_off_peak(self):
        t = TimeOfUseTariff()
        assert not t.is_peak(6, 14.0)  # Saturday in peak hours
        assert not t.is_peak(7, 14.0)

    def test_boundaries(self):
        t = TimeOfUseTariff(peak_start_hour=13.0, peak_end_hour=19.0)
        assert t.is_peak(1, 13.0)
        assert not t.is_peak(1, 19.0)  # end exclusive

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="peak_end_hour"):
            TimeOfUseTariff(peak_start_hour=19.0, peak_end_hour=13.0)

    def test_rejects_peak_below_off_peak(self):
        with pytest.raises(ValueError, match="peak price"):
            TimeOfUseTariff(off_peak_per_kwh=0.3, peak_per_kwh=0.1)


class TestDemandResponse:
    def test_event_multiplies(self):
        base = FlatTariff(rate_per_kwh=0.10)
        t = DemandResponseTariff(
            base=base, event_days=frozenset({100}), event_multiplier=5.0
        )
        assert t.price_per_kwh(100, 15.0) == pytest.approx(0.50)

    def test_outside_event_base_price(self):
        base = FlatTariff(rate_per_kwh=0.10)
        t = DemandResponseTariff(base=base, event_days=frozenset({100}))
        assert t.price_per_kwh(101, 15.0) == pytest.approx(0.10)
        assert t.price_per_kwh(100, 20.0) == pytest.approx(0.10)  # after window

    def test_in_event_helper(self):
        t = DemandResponseTariff(event_days=frozenset({50, 51}))
        assert t.in_event(50, 15.0)
        assert not t.in_event(52, 15.0)

    def test_stacks_on_tou(self):
        t = DemandResponseTariff(
            base=TimeOfUseTariff(),
            event_days=frozenset({1}),
            event_start_hour=14.0,
            event_end_hour=18.0,
            event_multiplier=2.0,
        )
        tou_peak = TimeOfUseTariff().peak_per_kwh
        assert t.price_per_kwh(1, 15.0) == pytest.approx(2.0 * tou_peak)

    def test_rejects_inverted_event_window(self):
        with pytest.raises(ValueError, match="event_end_hour"):
            DemandResponseTariff(event_start_hour=18.0, event_end_hour=14.0)

    def test_event_days_coerced_to_ints(self):
        t = DemandResponseTariff(event_days=frozenset({100.0}))  # type: ignore[arg-type]
        assert t.in_event(100, 15.0)
