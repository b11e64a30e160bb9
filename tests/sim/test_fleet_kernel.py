"""The fleet's single RC update and the control-step kernel it runs.

:func:`~repro.env.kernel.advance`, run on the propagators of a
:class:`~repro.sim.BatchRCNetwork`, is the one RC update of the
control-step kernel that :class:`~repro.sim.VectorHVACEnv` steps.  These
tests check it against the scalar :class:`RCNetwork` step, pin the
kernel to it bit for bit, and check that a fleet's rows are independent
of each other: a building steps to the same bytes whether it runs alone
or next to others.
"""

import numpy as np
import pytest

from repro.building.thermal import RCNetwork
from repro.env.kernel import advance, step_rows
from repro.hvac.vav import AIR_CP_J_PER_KG_K
from repro.sim import BatchRCNetwork, VectorHVACEnv
from repro.sim.golden import golden_actions
from repro.sim.scenarios import build_fleet, get_scenario

N_STEPS = 24


def _random_network(rng, n_zones):
    cap = rng.uniform(1e6, 5e6, size=n_zones)
    ua = rng.uniform(50.0, 200.0, size=n_zones)
    inter = np.zeros((n_zones, n_zones))
    for i in range(n_zones):
        for j in range(i + 1, n_zones):
            inter[i, j] = inter[j, i] = rng.uniform(0.0, 80.0)
    return RCNetwork(capacitance=cap, ua_ambient=ua, ua_interzone=inter)


def _padded_inputs(rng, nets):
    """Random zone temperatures, heat inputs and ambient temps (padded)."""
    batch = BatchRCNetwork(nets)
    shape = (batch.n_envs, batch.max_zones)
    temps = np.zeros(shape)
    heat = np.zeros(shape)
    for k, net in enumerate(nets):
        temps[k, : net.n_zones] = rng.uniform(18.0, 28.0, size=net.n_zones)
        heat[k, : net.n_zones] = rng.uniform(-3000.0, 3000.0, size=net.n_zones)
    temp_out = rng.uniform(-5.0, 38.0, size=batch.n_envs)
    return batch, temps, temp_out, heat


def _fleet(seeds, scenario="baseline-tou"):
    return VectorHVACEnv(build_fleet(get_scenario(scenario), seeds), autoreset=False)


def _rollout(vec, actions, n_steps=N_STEPS):
    """Concatenated (obs, rewards, temps) bytes of a fixed-action rollout."""
    chunks = [vec.reset().tobytes()]
    for t in range(n_steps):
        obs, rewards, dones, info = vec.step([a[t] for a in actions])
        chunks.append(obs.tobytes())
        chunks.append(rewards.tobytes())
        chunks.append(info.temps_c.tobytes())
    return b"".join(chunks)


def _row_rollout(vec, actions, n_steps=N_STEPS):
    """Per-row (obs, rewards, temps) bytes of a fixed-action rollout."""
    rows = [[r.tobytes()] for r in vec.reset()]
    for t in range(n_steps):
        obs, rewards, dones, info = vec.step([a[t] for a in actions])
        for k, chunks in enumerate(rows):
            chunks.append(obs[k].tobytes())
            chunks.append(rewards[k].tobytes())
            chunks.append(info.temps_c[k].tobytes())
    return [b"".join(chunks) for chunks in rows]


class TestAdvance:
    def test_matches_scalar_networks(self, sweep_seed):
        rng = np.random.default_rng(sweep_seed)
        nets = [_random_network(rng, z) for z in (1, 2, 4)]
        batch, temps, temp_out, heat = _padded_inputs(rng, nets)
        decay, gain = batch._propagators(450.0)
        out = advance(
            decay, gain, temps, temp_out, heat, batch.capacitance, batch.ua_ambient
        )
        for k, net in enumerate(nets):
            m = net.n_zones
            expected = net.step(temps[k, :m], temp_out[k], heat[k, :m], 450.0)
            np.testing.assert_allclose(out[k, :m], expected, atol=1e-10)

    @pytest.mark.parametrize("zones", [(1, 3), (2, 4), (1, 1, 4)])
    def test_padded_zones_stay_zero(self, zones, rng):
        nets = [_random_network(rng, z) for z in zones]
        batch, temps, temp_out, heat = _padded_inputs(rng, nets)
        decay, gain = batch._propagators(900.0)
        for _ in range(48):
            temps = advance(
                decay, gain, temps, temp_out, heat, batch.capacitance, batch.ua_ambient
            )
            for k, net in enumerate(nets):
                assert np.all(temps[k, net.n_zones :] == 0.0)
            assert np.all(np.isfinite(temps))

    def test_leaves_inputs_untouched(self, rng):
        nets = [_random_network(rng, z) for z in (2, 3)]
        batch, temps, temp_out, heat = _padded_inputs(rng, nets)
        decay, gain = batch._propagators(900.0)
        before = [a.copy() for a in (decay, gain, temps, temp_out, heat)]
        advance(decay, gain, temps, temp_out, heat, batch.capacitance, batch.ua_ambient)
        for a, b in zip(before, (decay, gain, temps, temp_out, heat)):
            assert a.tobytes() == b.tobytes()

    def test_steady_state_is_a_fixed_point(self, rng):
        nets = [_random_network(rng, z) for z in (1, 3)]
        batch, _, temp_out, heat = _padded_inputs(rng, nets)
        steady = np.zeros_like(heat)
        for k, net in enumerate(nets):
            m = net.n_zones
            steady[k, :m] = net.steady_state(temp_out[k], heat[k, :m])
        decay, gain = batch._propagators(3600.0)
        out = advance(
            decay, gain, steady, temp_out, heat, batch.capacitance, batch.ua_ambient
        )
        np.testing.assert_allclose(out, steady, atol=1e-8)


class TestStepKernel:
    def test_kernel_temps_are_the_shared_rc_update(self, sweep_seed):
        vec = _fleet([sweep_seed, sweep_seed + 1])
        vec.reset()
        actions = golden_actions("baseline-tou")
        for t in range(4):
            before = vec.zone_temps_c.copy()
            obs, rewards, dones, info = vec.step([a[t] for a in actions])
            heat = (
                vec._cols.aperture * info.ghi_w_m2[:, None]
                + vec._tables.gains[np.arange(vec.n_envs), vec._idx - 1]
                + _hvac_heat(vec, info.levels, before)
            )
            decay, gain = vec.batch_net._propagators(vec.dt_seconds)
            expected = advance(
                decay, gain, before, info.temp_out_c, heat,
                vec.batch_net.capacitance, vec.batch_net.ua_ambient,
            )
            assert info.temps_c.tobytes() == expected.tobytes()

    def test_inactive_rows_are_frozen(self):
        vec = _fleet([3, 4])
        vec.reset()
        vec._done[1] = True  # env 1 finished (autoreset=False freezes it)
        temps_before = vec.zone_temps_c
        levels = np.ones((vec.n_envs, vec.max_zones), dtype=int)
        _, reward, dones, info = vec.step(levels)
        assert info.temps_c[1].tobytes() == temps_before[1].tobytes()
        assert reward[1] == 0.0 and bool(dones[1])
        assert info.cost_usd[1] == 0.0 and np.all(info.reward_per_zone[1] == 0.0)
        assert not np.array_equal(info.temps_c[0], temps_before[0])

    def test_kernel_is_pure(self):
        vec = _fleet([3, 4])
        vec.reset()
        rows = np.arange(vec.n_envs)
        i = vec._idx
        tab = vec._tables
        levels = np.ones((vec.n_envs, vec.max_zones), dtype=int)
        temps_before = vec._temps.copy()
        decay, gain = vec.batch_net._propagators(vec.dt_seconds)
        step_rows(
            vec._cols, vec.batch_net, decay, gain, levels, vec._temps,
            tab.exo[rows, i, 0], tab.exo[rows, i, 1], tab.exo[rows, i, 2],
            tab.occupied[rows, i], tab.gains[rows, i], vec.dt_seconds,
        )
        # Fleet state only changes in step().
        assert vec._temps.tobytes() == temps_before.tobytes()

    def test_batch_net_shares_fleet_width(self):
        vec = _fleet([1, 2])
        assert vec.batch_net.max_zones == vec.max_zones
        assert vec.zone_mask.shape == (vec.n_envs, vec.max_zones)


class TestFleetDeterminism:
    def test_two_constructions_are_byte_identical(self, sweep_seed):
        actions = golden_actions("baseline-tou")
        seeds = [sweep_seed, sweep_seed + 1]
        assert _rollout(_fleet(seeds), actions) == _rollout(_fleet(seeds), actions)

    def test_rows_do_not_depend_on_fleet_mates(self, sweep_seed):
        actions = golden_actions("baseline-tou")
        seeds = [sweep_seed, sweep_seed + 1]
        together = _row_rollout(_fleet(seeds), actions)
        for k, seed in enumerate(seeds):
            (alone,) = _row_rollout(_fleet([seed]), [actions[k]])
            assert together[k] == alone


def _hvac_heat(vec, levels, temps):
    """Per-zone HVAC heat, written out from the supply-air heat balance."""
    flows = vec._cols.flow_table[np.arange(vec.n_envs)[:, None], levels]
    return flows * AIR_CP_J_PER_KG_K * (vec._cols.supply_temp[:, None] - temps)
