"""Tests for the comfort band and the kernel's violation accounting."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env import ComfortBand, HVACEnvConfig
from repro.env.kernel import outcome, step_columns
from repro.hvac import VAVConfig, VAVSystem


def _violations(band, temps, occupied):
    """Per-zone violation degrees of one row under ``band``."""
    temps = np.atleast_1d(np.asarray(temps, dtype=float))
    n = temps.size
    env = SimpleNamespace(
        building=SimpleNamespace(
            n_zones=n, zones=[SimpleNamespace(solar_aperture_m2=0.0)] * n
        ),
        vav=VAVSystem(VAVConfig(), n),
        comfort=band,
        config=HVACEnvConfig(),
    )
    out = outcome(
        step_columns([env]),
        temps[None],
        np.broadcast_to(occupied, (1, n)),
        np.zeros((1, n)),
        np.zeros(1),
        0.0,
        3600.0,
    )
    return out.violations[0]


def violation_deg(band, temp, occupied):
    return float(_violations(band, [temp], occupied)[0])


class TestComfortBand:
    def test_inside_band_no_violation(self):
        band = ComfortBand()
        assert violation_deg(band, 24.0, occupied=True) == 0.0

    def test_above_band(self):
        band = ComfortBand(occupied_high_c=26.0)
        assert violation_deg(band, 28.5, occupied=True) == pytest.approx(2.5)

    def test_below_band(self):
        band = ComfortBand(occupied_low_c=22.0)
        assert violation_deg(band, 20.0, occupied=True) == pytest.approx(2.0)

    def test_setback_band_wider(self):
        band = ComfortBand()
        temp = 28.0  # violates occupied band, fine in setback
        assert violation_deg(band, temp, occupied=True) > 0.0
        assert violation_deg(band, temp, occupied=False) == 0.0

    def test_setback_still_enforced(self):
        band = ComfortBand(setback_high_c=32.0)
        assert violation_deg(band, 35.0, occupied=False) == pytest.approx(3.0)

    def test_zones_scored_independently(self):
        band = ComfortBand()
        vec = _violations(band, [20.0, 24.0, 28.0], True)
        np.testing.assert_allclose(vec, [2.0, 0.0, 2.0])

    def test_mixed_occupancy(self):
        band = ComfortBand()
        vec = _violations(band, [28.0, 28.0], np.array([True, False]))
        assert vec[0] > 0.0 and vec[1] == 0.0

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError, match="high > low"):
            ComfortBand(occupied_low_c=26.0, occupied_high_c=22.0)

    def test_rejects_setback_inside_occupied(self):
        with pytest.raises(ValueError, match="setback band must contain"):
            ComfortBand(setback_low_c=23.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-10.0, max_value=45.0),
        st.booleans(),
    )
    def test_property_violation_non_negative(self, temp, occupied):
        assert violation_deg(ComfortBand(), temp, occupied) >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=45.0))
    def test_property_occupied_at_least_as_strict(self, temp):
        band = ComfortBand()
        assert violation_deg(band, temp, True) >= violation_deg(band, temp, False)
