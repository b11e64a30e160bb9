"""Tests for the batched RC network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.building.thermal import RCNetwork
from repro.env.kernel import advance
from repro.sim import BatchRCNetwork


def _advance(batch, temps, temp_out, heat, dt):
    """One RC step of the fleet: the kernel's update on the propagators."""
    decay, gain = batch._propagators(dt)
    return advance(
        decay, gain, temps, temp_out, heat, batch.capacitance, batch.ua_ambient
    )


def _random_network(rng, n_zones):
    cap = rng.uniform(1e6, 5e6, size=n_zones)
    ua = rng.uniform(50.0, 200.0, size=n_zones)
    inter = np.zeros((n_zones, n_zones))
    for i in range(n_zones):
        for j in range(i + 1, n_zones):
            inter[i, j] = inter[j, i] = rng.uniform(0.0, 80.0)
    return RCNetwork(capacitance=cap, ua_ambient=ua, ua_interzone=inter)


class TestBatchRCNetwork:
    def test_matches_scalar_step(self, rng):
        nets = [_random_network(rng, z) for z in (1, 2, 4, 4)]
        batch = BatchRCNetwork(nets)
        temps = np.zeros((4, 4))
        heat = np.zeros((4, 4))
        temp_out = np.array([30.0, 25.0, 35.0, 28.0])
        for k, net in enumerate(nets):
            temps[k, : net.n_zones] = rng.uniform(20.0, 26.0, size=net.n_zones)
            heat[k, : net.n_zones] = rng.uniform(-2000.0, 2000.0, size=net.n_zones)
        out = _advance(batch, temps, temp_out, heat, 900.0)
        for k, net in enumerate(nets):
            m = net.n_zones
            expected = net.step(temps[k, :m], temp_out[k], heat[k, :m], 900.0)
            np.testing.assert_allclose(out[k, :m], expected, atol=1e-10)
            # Padded zones stay identically zero.
            assert np.all(out[k, m:] == 0.0)

    def test_padding_and_shapes(self, rng):
        nets = [_random_network(rng, z) for z in (1, 3)]
        batch = BatchRCNetwork(nets)
        assert batch.n_envs == 2
        assert batch.max_zones == 3
        # Padded zones: unit capacitance, no conductance to ambient.
        assert batch.capacitance[0, 1:].tolist() == [1.0, 1.0]
        assert batch.ua_ambient[0, 1:].tolist() == [0.0, 0.0]

    def test_propagator_cache_reused(self, rng):
        batch = BatchRCNetwork([_random_network(rng, 2)])
        first = batch._propagators(900.0)
        assert batch._propagators(900.0) is first
        assert batch._propagators(450.0) is not first

    def test_propagator_cache_keeps_only_last_dt(self, rng):
        batch = BatchRCNetwork([_random_network(rng, 2)])
        p900 = batch._propagators(900.0)
        p450 = batch._propagators(450.0)
        assert batch._propagators(450.0) is p450
        # Going back to 900 s rebuilds its pair (only the last dt is kept).
        rebuilt = batch._propagators(900.0)
        assert rebuilt is not p900
        # Each rebuilt pair equals a fresh network's build.
        for dt, pair in ((450.0, p450), (900.0, rebuilt)):
            fresh = BatchRCNetwork(batch.networks)._propagators(dt)
            np.testing.assert_array_equal(pair[0], fresh[0])
            np.testing.assert_array_equal(pair[1], fresh[1])

    def test_rejects_singular_network(self):
        # A zone fully isolated from ambient makes M singular.
        isolated = RCNetwork(
            capacitance=np.array([1e6]),
            ua_ambient=np.array([0.0]),
            ua_interzone=np.zeros((1, 1)),
        )
        with pytest.raises(ValueError, match="singular"):
            BatchRCNetwork([isolated])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchRCNetwork([])


# A padded fleet: one 1-zone and one 3-zone building.
_PADDED_NETS = [
    _random_network(np.random.default_rng(7), z) for z in (1, 3)
]
_HEAT = np.array([[800.0, 0.0, 0.0], [-1500.0, 300.0, 1200.0]])
_TEMP_OUT = np.array([31.0, 12.0])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([300.0, 450.0, 900.0, 3600.0]), min_size=1, max_size=10))
def test_one_entry_cache_matches_fresh_build_over_dt_sequences(dts):
    batch = BatchRCNetwork(_PADDED_NETS)
    temps = np.array([[22.0, 0.0, 0.0], [20.0, 24.0, 26.0]])
    for dt in dts:
        out = _advance(batch, temps, _TEMP_OUT, _HEAT, dt)
        expected = _advance(BatchRCNetwork(_PADDED_NETS), temps, _TEMP_OUT, _HEAT, dt)
        assert np.array_equal(out, expected)
        assert np.all(out[0, 1:] == 0.0)
        temps = out
