"""The faulted fleet's sensed temperatures: one gather, byte-equal to the
per-layout loop it replaced (kept here as the reference)."""

import numpy as np
import pytest

from repro.faults import FaultyVectorHVACEnv
from repro.sim import VectorHVACEnv, get_scenario

_ONE_ZONE = get_scenario("baseline-tou").with_overrides(
    name="sensed-1z", weather_days=2.0, episode_days=0.25
)
_FIVE_ZONE = get_scenario("five-zone-office").with_overrides(
    name="sensed-5z", weather_days=2.0, episode_days=0.5
)


def _reference(vec):
    """The per-layout loop: each row's temperature channels through its
    own ``ObsLayout.sensed_temps_c``; physical values elsewhere."""
    temps = vec.vec_env.zone_temps_c
    if vec.injector is None or vec._last_obs is None:
        return temps
    for k, lay in enumerate(vec.layouts):
        temps[k, : lay.n_zones] = lay.sensed_temps_c(vec._last_obs[k, : lay.obs_dim])
    return temps


def _assert_same(vec, where):
    got, want = vec.sensed_zone_temps_c, _reference(vec)
    assert got.dtype == want.dtype and got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), where


def _fleet(members, profile, *, autoreset=False):
    vec = VectorHVACEnv([s.build(seed) for s, seed in members], autoreset=autoreset)
    return FaultyVectorHVACEnv(vec, profile, seeds=[seed for _, seed in members])


MIXED = [(_ONE_ZONE, 0), (_FIVE_ZONE, 1), (_ONE_ZONE, 2), (_FIVE_ZONE, 3)]
SINGLE = [(_ONE_ZONE, 0), (_ONE_ZONE, 1)]


@pytest.mark.parametrize("profile", ["none", "noisy-sensors", "stuck-thermistor", "dead-thermistor"])
@pytest.mark.parametrize("members", [MIXED, SINGLE], ids=["mixed", "single-zone"])
def test_sensed_temps_match_per_layout_loop(members, profile):
    vec = _fleet(members, profile)
    _assert_same(vec, "before the first observation")
    rng = np.random.default_rng(0)
    for episode in range(2):
        vec.reset()
        _assert_same(vec, f"episode {episode} reset")
        t = 0
        while not vec.dones.all():
            actions = [env.action_space.sample(rng) for env in vec.envs]
            vec.step(actions)
            t += 1
            _assert_same(vec, f"episode {episode} step {t}")
        # Keep stepping frozen rows: their last faulted reading stays.
        frozen = vec.sensed_zone_temps_c
        vec.step([env.action_space.sample(rng) for env in vec.envs])
        _assert_same(vec, f"episode {episode} all frozen")
        assert vec.sensed_zone_temps_c.tobytes() == frozen.tobytes()


def test_frozen_rows_read_their_last_faulted_observation():
    vec = _fleet(MIXED, "noisy-sensors")
    vec.reset()
    rng = np.random.default_rng(1)
    while not vec.dones.any():
        vec.step([env.action_space.sample(rng) for env in vec.envs])
    # The quarter-day rows froze first; the others still step.
    assert vec.dones.tolist() == [True, False, True, False]
    vec.step([env.action_space.sample(rng) for env in vec.envs])
    _assert_same(vec, "partly frozen")


def test_padded_zones_read_physical_values():
    vec = _fleet(MIXED, "biased-thermistor")
    vec.reset()
    sensed = vec.sensed_zone_temps_c
    physical = vec.vec_env.zone_temps_c
    padded = ~vec.zone_mask
    assert padded.any()
    assert sensed[padded].tobytes() == physical[padded].tobytes()
    # A +1.5 °C bias shows in every real zone.
    assert np.all(sensed[vec.zone_mask] != physical[vec.zone_mask])


def test_autoreset_fleet_matches_per_layout_loop():
    vec = _fleet(MIXED, "noisy-sensors", autoreset=True)
    vec.reset()
    rng = np.random.default_rng(2)
    for t in range(60):  # past the quarter-day rows' first autoreset
        vec.step([env.action_space.sample(rng) for env in vec.envs])
        _assert_same(vec, f"step {t}")
