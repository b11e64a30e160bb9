"""Byte pins of faulted trajectories, per registered fault profile.

Every registered profile runs on a mixed fleet — single-zone
``baseline-tou`` rows with and without a forecast horizon next to
``five-zone-office`` rows — with ``autoreset`` on and off, long enough
to cross episode ends (and, without autoreset, to freeze every row).
SHA-256 digests cover the observations, rewards, dones, executed and
commanded levels, terminal observations, sensed zone temperatures and
the injector's final ``state_dict()``; the fault telemetry counters are
pinned alongside.  A scalar :class:`~repro.faults.FaultyHVACEnv` digest
per profile pins the one-env path.  ``PINS`` was recorded before the
fault models acted on row blocks of the fleet.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.faults import FaultyHVACEnv, FaultyVectorHVACEnv, list_fault_profiles
from repro.obs import Telemetry, set_telemetry
from repro.sim import VectorHVACEnv, get_scenario

_ONE_ZONE = get_scenario("baseline-tou").with_overrides(
    name="pin-1z", weather_days=3.0, episode_days=0.5
)
_ONE_ZONE_BLIND = _ONE_ZONE.with_overrides(name="pin-1z-h0", forecast_horizon=0)
_FIVE_ZONE = get_scenario("five-zone-office").with_overrides(
    name="pin-5z", weather_days=3.0, episode_days=1.0
)
MEMBERS = [(_ONE_ZONE_BLIND, 0), (_FIVE_ZONE, 1), (_ONE_ZONE, 2), (_FIVE_ZONE, 3)]
N_STEPS = 110  # 1z episodes end at 48 and 96, 5z at 96


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value) -> None:
        if value is None:
            self._h.update(b"none")
            return
        a = np.ascontiguousarray(value)
        self._h.update(f"{a.dtype.str}{a.shape}".encode())
        self._h.update(a.tobytes())

    def add_json(self, value) -> None:
        self._h.update(json.dumps(value, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _commanded(vec, info):
    """The commanded levels as one ``(n_envs, max_zones)`` matrix, padded
    zones at 0 (``None`` when the profile injects nothing)."""
    commanded = getattr(info, "commanded_levels", None)
    if commanded is None or isinstance(commanded, np.ndarray):
        return commanded
    out = np.zeros((vec.n_envs, vec.max_zones), dtype=np.int64)
    for k, row in enumerate(commanded):
        out[k, : len(row)] = row
    return out


def _counters(tel):
    activations = tel.registry.get("faults.activations_total")
    episodes = tel.registry.get("faults.episodes_total")
    return {
        "activations": {}
        if activations is None
        else {dict(labels)["model"]: child.value for labels, child in activations.series()},
        "episodes": 0.0 if episodes is None else episodes.value,
    }


def _with_telemetry(run):
    tel = Telemetry()
    previous = set_telemetry(tel)
    try:
        digest = run()
    finally:
        set_telemetry(previous)
    return {"digest": digest, **_counters(tel)}


def fleet_pin(profile, autoreset):
    """Run the mixed fleet; list and stacked actions alternate."""

    def run():
        vec = FaultyVectorHVACEnv(
            VectorHVACEnv([s.build(seed) for s, seed in MEMBERS], autoreset=autoreset),
            profile,
            seeds=[seed for _, seed in MEMBERS],
        )
        rng = np.random.default_rng(5)
        h = _Digest()
        h.add(vec.reset())
        h.add(vec.sensed_zone_temps_c)
        for t in range(N_STEPS):
            actions = [env.action_space.sample(rng) for env in vec.envs]
            if t % 2:
                stacked = rng.integers(0, 4, size=(vec.n_envs, vec.max_zones))
                for k, a in enumerate(actions):
                    stacked[k, : a.size] = a
                actions = stacked
            obs, rewards, dones, info = vec.step(actions)
            for value in (obs, rewards, dones, info.levels, info.terminal_obs,
                          _commanded(vec, info), vec.sensed_zone_temps_c):
                h.add(value)
        h.add_json(None if vec.injector is None else vec.injector.state_dict())
        return h.hexdigest()

    return _with_telemetry(run)


def scalar_pin(profile):
    """A scalar faulted five-zone env, reset after each episode."""

    def run():
        env = FaultyHVACEnv(_FIVE_ZONE.build(4), profile, seed=4)
        rng = np.random.default_rng(6)
        h = _Digest()
        h.add(env.reset())
        h.add(env.zone_temps_c)
        for _ in range(N_STEPS):
            obs, reward, done, info = env.step(env.action_space.sample(rng))
            h.add(obs)
            h.add_json([reward, done])
            for key in ("levels", "temps_c", "commanded_levels", "sensed_temps_c"):
                h.add(info.get(key))
            h.add(env.zone_temps_c)
            h.add(env.true_zone_temps_c)
            if done:
                h.add(env.reset())
        h.add_json(json.loads(json.dumps(env.state_dict())))
        return h.hexdigest()

    return _with_telemetry(run)


def test_every_profile_is_pinned():
    assert sorted(PINS) == sorted(list_fault_profiles())


@pytest.mark.parametrize("autoreset", [True, False], ids=["autoreset", "frozen"])
@pytest.mark.parametrize("profile", list_fault_profiles())
def test_fleet_pin(profile, autoreset):
    key = "autoreset" if autoreset else "frozen"
    assert fleet_pin(profile, autoreset) == PINS[profile][key]


@pytest.mark.parametrize("profile", list_fault_profiles())
def test_scalar_pin(profile):
    assert scalar_pin(profile) == PINS[profile]["scalar"]


PINS = {'bad-forecast': {'autoreset': {'activations': {'forecast': 890.0},
                                'digest': '244b996535e11e48bfb3b80fb8cc495fca118ff64022edd089a77f12f4d49d65',
                                'episodes': 10.0},
                  'frozen': {'activations': {'forecast': 580.0},
                             'digest': 'de3757d1bab4286efc13a3fdc3bc7736146e880492af9ffe6d537f7e723cdac2',
                             'episodes': 4.0},
                  'scalar': {'activations': {'forecast': 222.0},
                             'digest': 'd425fc8ab094d979b07cdb65fa08445212b094bc6e8728f5e8bd5916d4c0340f',
                             'episodes': 2.0}},
 'biased-thermistor': {'autoreset': {'activations': {'sensor_noise': 890.0},
                                     'digest': 'facc7d2b815a6c1c51878e10cbf162b243cb11782722b20b8ff0420d9ac2cbe3',
                                     'episodes': 10.0},
                       'frozen': {'activations': {'sensor_noise': 580.0},
                                  'digest': 'ab11e9ff3d05732d9b0b4fc4c9efd9ed8c9af63e11cd805e2e53b81fc875776a',
                                  'episodes': 4.0},
                       'scalar': {'activations': {'sensor_noise': 222.0},
                                  'digest': 'cdeaf0ba8d6a34ea9e60af6f632bc77596353bf7738da1fd7a2e3775b8c6dd78',
                                  'episodes': 2.0}},
 'compound-degraded': {'autoreset': {'activations': {'actuator': 890.0,
                                                     'forecast': 890.0,
                                                     'sensor_noise': 890.0},
                                     'digest': 'fa468747e429fb58fec7d2bc283391f2b57120a6bdadafe7be43b8f4c7f7fa76',
                                     'episodes': 10.0},
                       'frozen': {'activations': {'actuator': 580.0,
                                                  'forecast': 580.0,
                                                  'sensor_noise': 580.0},
                                  'digest': 'a7f0f52ed63b38a467b1676a22d6c9a4e310424c6333c6504d71f8cf1f93c42d',
                                  'episodes': 4.0},
                       'scalar': {'activations': {'actuator': 222.0,
                                                  'forecast': 222.0,
                                                  'sensor_noise': 222.0},
                                  'digest': 'd01c552469fd6f2bd7085c43bdc51b8f6a78d409ed0b577c35af9532ee26e6bb',
                                  'episodes': 2.0}},
 'dead-thermistor': {'autoreset': {'activations': {'stuck_sensor': 890.0},
                                   'digest': 'b4e3ee79ec61c66e0c630fa52485bafaeb3b533ce94f17079a523e7d288e43a1',
                                   'episodes': 10.0},
                     'frozen': {'activations': {'stuck_sensor': 580.0},
                                'digest': '7d992f3fa754529d69f5120cfe526c7afbc4958ba6bbc8a59d99b3a17ae65627',
                                'episodes': 4.0},
                     'scalar': {'activations': {'stuck_sensor': 222.0},
                                'digest': '66e5d7fe58bea1017f600a675e1a886a5058d213b3afed9325493ddcc61f962a',
                                'episodes': 2.0}},
 'degraded-capacity': {'autoreset': {'activations': {'actuator': 890.0},
                                     'digest': '6109398de2cad4516e58684b5d14c19c540af1f1afd2b4d976165ec171607129',
                                     'episodes': 10.0},
                       'frozen': {'activations': {'actuator': 580.0},
                                  'digest': '343ec5f5610cb5208faa4fea6bca39a9c9dface0671f67c35bc4c13f0bfd9537',
                                  'episodes': 4.0},
                       'scalar': {'activations': {'actuator': 222.0},
                                  'digest': '3edbea17bcaa04aa12e9eebd20a46a1bd4d2343b0d70bd4ce92df65ededaa9a7',
                                  'episodes': 2.0}},
 'noisy-sensors': {'autoreset': {'activations': {'sensor_noise': 890.0},
                                 'digest': '3f49ce1cabf3d09ab5f59f191482ddac5c3e0ef57517865d5980e75903a9a990',
                                 'episodes': 10.0},
                   'frozen': {'activations': {'sensor_noise': 580.0},
                              'digest': 'aa30dd8fd2ef6c0a550c8772619179fe2f9730666d8604facbcb0debea196cd2',
                              'episodes': 4.0},
                   'scalar': {'activations': {'sensor_noise': 222.0},
                              'digest': '55feb166c0e0b90afed873c02175584df5e73705c45cbb73c871108c6d14e9f2',
                              'episodes': 2.0}},
 'none': {'autoreset': {'activations': {},
                        'digest': 'f2336387238e8720a9f398add18d823c052c854da89f611db00bb9cb3653b8ce',
                        'episodes': 0.0},
          'frozen': {'activations': {},
                     'digest': '733ea559510e0c9829bab0b1dce53253599203deeb069250f97d9e537ed8cd0a',
                     'episodes': 0.0},
          'scalar': {'activations': {},
                     'digest': 'ec0d8fa967aab21ca7814f4bf66921c0d3ddc6146da520bbf3f3561c3bd43e90',
                     'episodes': 0.0}},
 'occupancy-surprise': {'autoreset': {'activations': {'occupancy': 890.0},
                                      'digest': '1c232cd69015a35e347e0c9b510c0c803cd66a569f3403b0e2ebf9de727e2cee',
                                      'episodes': 10.0},
                        'frozen': {'activations': {'occupancy': 580.0},
                                   'digest': 'cd3af74ebfc64f87f1add7c125372738967214af9b158ed124fd0a7a92a0691c',
                                   'episodes': 4.0},
                        'scalar': {'activations': {'occupancy': 222.0},
                                   'digest': '031a60240be6be44240e9a2f0913a33ff7c8ca9f5577ced29686522432a83834',
                                   'episodes': 2.0}},
 'stuck-damper': {'autoreset': {'activations': {'actuator': 890.0},
                                'digest': '67615c148a3a94fdc297e0ecec1846a2b424d40e42fc8f1460fc95482ce1e31e',
                                'episodes': 10.0},
                  'frozen': {'activations': {'actuator': 580.0},
                             'digest': 'bb9d21e89a758dfa415ca95659be67be4b5aefbb0217225d103f59a446093725',
                             'episodes': 4.0},
                  'scalar': {'activations': {'actuator': 222.0},
                             'digest': '5ecefa6596653c15e6aef6f884ab6ba928a36f0a128d45d03c33d0ed9ab7649c',
                             'episodes': 2.0}},
 'stuck-thermistor': {'autoreset': {'activations': {'stuck_sensor': 890.0},
                                    'digest': '63febafe84f4a9485cd40f188d76dfe0bc418398c79f8fe7cded9acc89f5f7f0',
                                    'episodes': 10.0},
                      'frozen': {'activations': {'stuck_sensor': 580.0},
                                 'digest': 'f90637fa515ae6a42da87e002b678ab479544094779d60aa479b8bad260b1d52',
                                 'episodes': 4.0},
                      'scalar': {'activations': {'stuck_sensor': 222.0},
                                 'digest': 'd4de6b04790c19b42004ddf71f18e94401d776f3476866be73ba3584cedec780',
                                 'episodes': 2.0}}}
