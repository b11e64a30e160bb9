"""Checkpoints written before the fleet owned every env's episode state.

Until the scalar env became a one-row fleet, ``HVACEnv`` kept its own
episode state and ``VectorHVACEnv.state_dict`` stored each member's
full scalar checkpoint next to the fleet arrays.  ``PARENT`` holds
mid-episode ``state_dict()`` snapshots written by that layout — a scalar
env, a mixed-layout fleet and a faulted fleet, each 60 steps into
``run(…, 1)`` — with SHA-256 digests of what each produced over its
next 50 steps (``run(…, 2)``, crossing an episode boundary).  Loaded
into freshly built twins, they must resume byte-exactly.

``faulty_scalar`` is a scalar ``FaultyHVACEnv`` snapshot (its own
``env``/``faults``/``last_obs`` keys), written before the scalar faulted
env became a one-row faulted fleet: a ``stuck-thermistor`` env 60 steps
into ``run(…, 1)``, past the step-16 latch onset, so the held reading is
part of the state.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.building import four_zone_office, single_zone_building
from repro.env import HVACEnv, HVACEnvConfig
from repro.faults import FaultyHVACEnv, FaultyVectorHVACEnv
from repro.sim import VectorHVACEnv
from repro.weather import SyntheticWeatherConfig, generate_weather

WEATHER = generate_weather(
    SyntheticWeatherConfig(), start_day_of_year=200, n_days=3, dt_seconds=900.0, rng=4
)


def make_env(builder, seed, horizon, days):
    return HVACEnv(
        builder(),
        WEATHER,
        config=HVACEnvConfig(
            episode_days=days, randomize_start_day=True, forecast_horizon=horizon
        ),
        rng=seed,
    )


def make_scalar():
    return make_env(four_zone_office, 7, 3, 0.5)


def make_fleet():
    return VectorHVACEnv(
        [
            make_env(single_zone_building, 8, 0, 0.5),
            make_env(four_zone_office, 9, 2, 1.0),
        ]
    )


def make_faulty():
    return FaultyVectorHVACEnv(make_fleet(), "noisy-sensors", seeds=[8, 9])


def make_faulty_scalar():
    return FaultyHVACEnv(
        make_env(four_zone_office, 7, 3, 1.0), "stuck-thermistor", seed=7
    )


def run_scalar(env, n, seed):
    """``n`` random-action steps, resetting after each episode."""
    rng = np.random.default_rng(seed)
    obs_log, rewards = [], []
    for _ in range(n):
        obs, reward, done, _ = env.step(env.action_space.sample(rng))
        obs_log.append(obs)
        rewards.append(reward)
        if done:
            obs_log.append(env.reset())
    return obs_log, rewards


def run_fleet(vec, n, seed):
    """``n`` random-action fleet steps (autoreset); dones join the obs log."""
    rng = np.random.default_rng(seed)
    obs_log, rewards = [], []
    for _ in range(n):
        actions = [env.action_space.sample(rng) for env in vec.envs]
        obs, reward, done, _ = vec.step(actions)
        obs_log += [obs, done.astype(float)]
        rewards.append(reward)
    return obs_log, rewards


def digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(np.asarray(row, dtype=np.float64).tobytes())
    return h.hexdigest()


CASES = {
    "scalar": (make_scalar, run_scalar),
    "fleet": (make_fleet, run_fleet),
    "faulty": (make_faulty, run_fleet),
    "faulty_scalar": (make_faulty_scalar, run_scalar),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_parent_checkpoint_resumes_byte_exactly(name):
    make, run = CASES[name]
    env = make()
    env.load_state_dict(PARENT[name]["state"])
    obs_log, rewards = run(env, 50, 2)
    assert digest(obs_log) == PARENT[name]["obs"]
    assert digest(rewards) == PARENT[name]["rewards"]


def test_scalar_checkpoint_layout_unchanged():
    for name in ("scalar", "faulty_scalar"):
        make, _ = CASES[name]
        env = make()
        env.load_state_dict(PARENT[name]["state"])
        assert json.loads(json.dumps(env.state_dict())) == PARENT[name]["state"], name


@pytest.mark.parametrize("name", ["fleet", "faulty"])
def test_fleet_checkpoint_keeps_only_member_rngs(name):
    """A fleet snapshot stores each member's RNG streams and nothing of
    the member's own episode state; the stale keys load and are dropped."""
    make, _ = CASES[name]
    env = make()
    parent = PARENT[name]["state"]
    env.load_state_dict(parent)
    state = json.loads(json.dumps(env.state_dict()))
    if name == "faulty":
        assert {**state, "vec_env": None} == {**parent, "vec_env": None}
        state, parent = state["vec_env"], parent["vec_env"]
    assert state["envs"] == [
        {"rng": s["rng"], "forecast_rng": s["forecast_rng"]} for s in parent["envs"]
    ]
    assert {**state, "envs": None} == {**parent, "envs": None}


PARENT = (
{'faulty': {'obs': 'eab1137759884e175eec621500af80286beea9f0fcc009015d5af081ceedca07',
            'rewards': '420aff497cedfb64640dfe6e700da11f71f14c01e7280eff39560eea1c69cfd7',
            'state': {'faults': {'models': [{'kind': 'sensor_noise', 'state': {}}],
                                 'rngs': [{'bit_generator': 'PCG64',
                                           'has_uint32': 0,
                                           'state': {'inc': 317688608943039003497253578225749938921,
                                                     'state': 301677168927595337596721588128483126946},
                                           'uinteger': 0},
                                          {'bit_generator': 'PCG64',
                                           'has_uint32': 0,
                                           'state': {'inc': 151202048809781718233467119746793796029,
                                                     'state': 54046242613379411334478400074567277023},
                                           'uinteger': 0}],
                                 'steps': [12, 60]},
                      'last_obs': {'data': [0.7071067811865475, 0.7071067811865476, 0.0,
                                            0.0, -0.4887335494677489,
                                            0.02262866551896834, 0.0,
                                            0.26666666666666666, 0.0, 0.0, 0.0, 0.0,
                                            0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                            -0.7071067811865471, -0.7071067811865479,
                                            0.0, 0.0, 0.0, 0.0, 0.0,
                                            -0.2891024148454721, -0.031247758773869743,
                                            0.11540762448054152, -0.02454727509424627,
                                            0.8806250480859971, 0.4024761390593325,
                                            0.26666666666666666, 0.7886807758321013,
                                            0.821680219936781, 0.5004001045929105,
                                            0.47920189975368904],
                                   'dtype': 'float64',
                                   'shape': [2, 18]},
                      'vec_env': {'done': {'data': [False, False],
                                           'dtype': 'bool',
                                           'shape': [2]},
                                  'envs': [{'forecast_rng': {'bit_generator': 'PCG64',
                                                             'has_uint32': 0,
                                                             'state': {'inc': 44576141828927622445647916785771272327,
                                                                       'state': 121752932798219445775246155194261091239},
                                                             'uinteger': 0},
                                            'index': 192,
                                            'needs_reset': False,
                                            'rng': {'bit_generator': 'PCG64',
                                                    'has_uint32': 0,
                                                    'state': {'inc': 60804517828637344299932890193562703917,
                                                              'state': 35976163658517913551726328808116519831},
                                                    'uinteger': 4240321754},
                                            'start_index': 192,
                                            'steps_taken': 0,
                                            'temps': [24.288548935820028]},
                                           {'forecast_rng': {'bit_generator': 'PCG64',
                                                             'has_uint32': 0,
                                                             'state': {'inc': 205615138964462538819827016306125114767,
                                                                       'state': 197023486911016085170465799814536711135},
                                                             'uinteger': 0},
                                            'index': 192,
                                            'needs_reset': False,
                                            'rng': {'bit_generator': 'PCG64',
                                                    'has_uint32': 1,
                                                    'state': {'inc': 47650611409575876553999889140290214363,
                                                              'state': 14466261494412353744798714852057031805},
                                                    'uinteger': 1231870532},
                                            'start_index': 192,
                                            'steps_taken': 0,
                                            'temps': [24.103148150051563,
                                                      24.27753408292018,
                                                      24.216074629603565,
                                                      24.415380120490507]}],
                                  'idx': {'data': [204, 252],
                                          'dtype': 'int64',
                                          'shape': [2]},
                                  'last_obs': {'data': [0.7071067811865475,
                                                        0.7071067811865476, 0.0, 0.0,
                                                        -0.4772496204691194,
                                                        -0.022974818103913462, 0.0,
                                                        0.26666666666666666, 0.0, 0.0,
                                                        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                                        0.0, 0.0, -0.7071067811865471,
                                                        -0.7071067811865479, 0.0, 0.0,
                                                        0.0, 0.0, 0.0,
                                                        -0.28046536355855733,
                                                        -0.04172370489387944,
                                                        0.14775531503180767,
                                                        -0.019134285938850228,
                                                        0.7862673890368863,
                                                        0.4599517993971971,
                                                        0.26666666666666666,
                                                        0.7886807758321013,
                                                        0.821680219936781,
                                                        0.5004001045929105,
                                                        0.47920189975368904],
                                               'dtype': 'float64',
                                               'shape': [2, 18]},
                                  'n_envs': 2,
                                  'needs_reset': False,
                                  'steps_taken': {'data': [12, 60],
                                                  'dtype': 'int64',
                                                  'shape': [2]},
                                  'temps': {'data': [18.227503795308806, 0.0, 0.0, 0.0,
                                                     20.195346364414426,
                                                     22.582762951061206,
                                                     24.477553150318077,
                                                     22.808657140611498],
                                            'dtype': 'float64',
                                            'shape': [2, 4]}}}},
 'faulty_scalar': {'obs': '539bf63bc6f61715d590b51a91f345003f4c766fe7dd5e1b257fb1e4abb2da0f',
                   'rewards': '8d9208a3d1dd0c0e7262535c5c1780c9df1b6db5340079f4f19cff82127a1b80',
                   'state': {'env': {'forecast_rng': {'bit_generator': 'PCG64',
                                                      'has_uint32': 0,
                                                      'state': {'inc': 120724756454006885865332947976669849395,
                                                                'state': 299008396498310278442967006041393807512},
                                                      'uinteger': 0},
                                     'index': 252,
                                     'needs_reset': False,
                                     'rng': {'bit_generator': 'PCG64',
                                             'has_uint32': 1,
                                             'state': {'inc': 261136684632268670825940853076396136793,
                                                       'state': 57900626327182248810360271475404325290},
                                             'uinteger': 3853503932},
                                     'start_index': 192,
                                     'steps_taken': 60,
                                     'temps': [21.47054791418213,
                                               22.127833412879394,
                                               24.385015281096077,
                                               24.505960641541325]},
                             'faults': {'models': [{'kind': 'stuck_sensor',
                                                    'state': {'held': [-0.5234559755109398],
                                                              'held_set': [True]}}],
                                        'rngs': [{'bit_generator': 'PCG64',
                                                  'has_uint32': 0,
                                                  'state': {'inc': 210062692495883996467189115823727530847,
                                                            'state': 289114525777058456170186582025923469396},
                                                  'uinteger': 0}],
                                        'steps': [60]},
                             'last_obs': [-0.7071067811865471,
                                          -0.7071067811865479,
                                          0.0,
                                          0.0,
                                          0.0,
                                          0.0,
                                          0.0,
                                          -0.5234559755109398,
                                          -0.08721665871206064,
                                          0.13850152810960772,
                                          0.1505960641541325,
                                          0.7862673890368863,
                                          0.4599517993971971,
                                          0.26666666666666666,
                                          0.8235094638658277,
                                          0.8321237662518683,
                                          0.81447986433817,
                                          0.4362387673569263,
                                          0.48272620090149476,
                                          0.5425133131243696]}},
 'fleet': {'obs': 'd6b35ee2db68fb8fc6d23d675d169296cbc9aef57593ae9fc37a05ee27b8f644',
           'rewards': '420aff497cedfb64640dfe6e700da11f71f14c01e7280eff39560eea1c69cfd7',
           'state': {'done': {'data': [False, False], 'dtype': 'bool', 'shape': [2]},
                     'envs': [{'forecast_rng': {'bit_generator': 'PCG64',
                                                'has_uint32': 0,
                                                'state': {'inc': 44576141828927622445647916785771272327,
                                                          'state': 121752932798219445775246155194261091239},
                                                'uinteger': 0},
                               'index': 192,
                               'needs_reset': False,
                               'rng': {'bit_generator': 'PCG64',
                                       'has_uint32': 0,
                                       'state': {'inc': 60804517828637344299932890193562703917,
                                                 'state': 35976163658517913551726328808116519831},
                                       'uinteger': 4240321754},
                               'start_index': 192,
                               'steps_taken': 0,
                               'temps': [24.288548935820028]},
                              {'forecast_rng': {'bit_generator': 'PCG64',
                                                'has_uint32': 0,
                                                'state': {'inc': 205615138964462538819827016306125114767,
                                                          'state': 197023486911016085170465799814536711135},
                                                'uinteger': 0},
                               'index': 192,
                               'needs_reset': False,
                               'rng': {'bit_generator': 'PCG64',
                                       'has_uint32': 1,
                                       'state': {'inc': 47650611409575876553999889140290214363,
                                                 'state': 14466261494412353744798714852057031805},
                                       'uinteger': 1231870532},
                               'start_index': 192,
                               'steps_taken': 0,
                               'temps': [24.103148150051563, 24.27753408292018,
                                         24.216074629603565, 24.415380120490507]}],
                     'idx': {'data': [204, 252], 'dtype': 'int64', 'shape': [2]},
                     'last_obs': {'data': [0.7071067811865475, 0.7071067811865476, 0.0,
                                           0.0, -0.4772496204691194,
                                           -0.022974818103913462, 0.0,
                                           0.26666666666666666, 0.0, 0.0, 0.0, 0.0, 0.0,
                                           0.0, 0.0, 0.0, 0.0, 0.0, -0.7071067811865471,
                                           -0.7071067811865479, 0.0, 0.0, 0.0, 0.0, 0.0,
                                           -0.28046536355855733, -0.04172370489387944,
                                           0.14775531503180767, -0.019134285938850228,
                                           0.7862673890368863, 0.4599517993971971,
                                           0.26666666666666666, 0.7886807758321013,
                                           0.821680219936781, 0.5004001045929105,
                                           0.47920189975368904],
                                  'dtype': 'float64',
                                  'shape': [2, 18]},
                     'n_envs': 2,
                     'needs_reset': False,
                     'steps_taken': {'data': [12, 60], 'dtype': 'int64', 'shape': [2]},
                     'temps': {'data': [18.227503795308806, 0.0, 0.0, 0.0,
                                        20.195346364414426, 22.582762951061206,
                                        24.477553150318077, 22.808657140611498],
                               'dtype': 'float64',
                               'shape': [2, 4]}}},
 'scalar': {'obs': 'a3f1f596aecf3ccc52974a510c2f098c31f85cced032df6b0fb9686800596d14',
            'rewards': '9cf501f387352b1cd2be40675a013499176ee983cae6af81b06fe8e4a85df009',
            'state': {'forecast_rng': {'bit_generator': 'PCG64',
                                       'has_uint32': 0,
                                       'state': {'inc': 120724756454006885865332947976669849395,
                                                 'state': 78204081288425562136570767348638142569},
                                       'uinteger': 0},
                      'index': 204,
                      'needs_reset': False,
                      'rng': {'bit_generator': 'PCG64',
                              'has_uint32': 0,
                              'state': {'inc': 261136684632268670825940853076396136793,
                                        'state': 119725963502042274673997512416535327174},
                              'uinteger': 3853503932},
                      'start_index': 192,
                      'steps_taken': 12,
                      'temps': [18.44804124155809, 18.193027019196037, 18.9461711456092,
                                19.52734064830129]}}}
)
