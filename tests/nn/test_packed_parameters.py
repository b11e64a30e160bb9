"""Tests for packed parameters: optimizers own flat value/grad buffers.

Every optimizer rebinds each ``Parameter.value`` and ``.grad`` to a
reshaped view of its flat buffers.  These tests pin that the views stay
shared through every in-place weight operation, that checkpoints keep
their per-parameter layout, and that an agent checkpoint written before
the packing existed resumes bit-exactly.
"""

import json

import numpy as np
import pytest

from repro import nn
from repro.core import DQNAgent
from repro.nn import SGD, Adam, DuelingMLP, MLP, Momentum, Parameter, RMSProp


def packed_net(cls=MLP):
    net = cls(5, (8, 6), 3, rng=0)
    return net, Adam(net.parameters(), lr=1e-2)


def shares_buffers(params, opt):
    return all(
        np.shares_memory(p.value, opt._value_flat)
        and np.shares_memory(p.grad, opt._grad_flat)
        for p in params
    )


def train_steps(net, opt, n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = rng.normal(size=(4, 5))
        opt.zero_grad()
        net.forward(x)
        net.backward(rng.normal(size=(4, 3)))
        opt.step()


class TestPacking:
    @pytest.mark.parametrize("cls", [SGD, Momentum, RMSProp, Adam])
    def test_views_share_the_optimizer_buffers(self, cls):
        net = MLP(5, (8,), 3, rng=0)
        before = [p.value.copy() for p in net.parameters()]
        opt = cls(net.parameters(), lr=0.1)
        assert shares_buffers(net.parameters(), opt)
        for p, value in zip(net.parameters(), before):
            assert np.array_equal(p.value, value)
        assert opt._value_flat.size == net.num_parameters()

    def test_standalone_parameters_are_packed(self):
        a, b = Parameter(np.array([1.0, 2.0]), "a"), Parameter(np.ones((2, 2)), "b")
        opt = SGD([a, b], lr=0.5)
        assert shares_buffers([a, b], opt)
        a.grad[:] = 2.0
        b.grad[:] = 4.0
        opt.step()
        assert np.array_equal(opt._value_flat, [0.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        assert np.array_equal(a.value, [0.0, 1.0])

    def test_zero_grad_clears_every_parameter(self):
        net, opt = packed_net()
        opt._grad_flat[:] = 1.0
        assert all(np.all(p.grad == 1.0) for p in net.parameters())
        opt.zero_grad()
        assert not opt._grad_flat.any()

    def test_step_leaves_grads_untouched(self):
        net, opt = packed_net()
        train_steps(net, opt, 1)
        grads = opt._grad_flat.copy()
        opt.step()
        assert np.array_equal(opt._grad_flat, grads)


class TestViewsSurviveWeightOps:
    @pytest.mark.parametrize("cls", [MLP, DuelingMLP])
    def test_load_state_dict(self, cls):
        net, opt = packed_net(cls)
        other = cls(5, (8, 6), 3, rng=1)
        nn.load_state_dict(net, json.loads(json.dumps(nn.state_dict(other))))
        assert shares_buffers(net.parameters(), opt)
        for mine, theirs in zip(net.parameters(), other.parameters()):
            assert np.array_equal(mine.value, theirs.value)

    @pytest.mark.parametrize("cls", [MLP, DuelingMLP])
    def test_copy_and_soft_update(self, cls):
        net, opt = packed_net(cls)
        other = cls(5, (8, 6), 3, rng=1)
        net.copy_weights_from(other)
        assert shares_buffers(net.parameters(), opt)
        assert np.array_equal(opt._value_flat, np.concatenate(
            [p.value.ravel() for p in other.parameters()]
        ))
        net.soft_update_from(cls(5, (8, 6), 3, rng=2), 0.5)
        assert shares_buffers(net.parameters(), opt)
        # ...and a packed net is a valid sync source for an unpacked one.
        other.copy_weights_from(net)
        assert nn.state_dict(other) == nn.state_dict(net)

    def test_clone_is_independent(self):
        net, opt = packed_net()
        twin = net.clone()
        assert not any(
            np.shares_memory(p.value, opt._value_flat) for p in twin.parameters()
        )
        train_steps(net, opt, 2)
        assert shares_buffers(net.parameters(), opt)
        assert not np.array_equal(twin.parameters()[0].value, net.parameters()[0].value)


class TestOptimizerStateRoundTrip:
    @pytest.mark.parametrize("cls", [Momentum, RMSProp, Adam])
    def test_resume_is_bit_exact(self, cls):
        net = MLP(5, (8, 6), 3, rng=0)
        opt = cls(net.parameters(), lr=1e-2)
        train_steps(net, opt, 3)
        weights = json.loads(json.dumps(nn.state_dict(net)))
        moments = json.loads(json.dumps(nn.optimizer_state_dict(opt)))

        twin = MLP(5, (8, 6), 3, rng=9)
        twin_opt = cls(twin.parameters(), lr=1.0)
        nn.load_state_dict(twin, weights)
        nn.load_optimizer_state_dict(twin_opt, moments)
        assert nn.optimizer_state_dict(twin_opt) == moments
        train_steps(net, opt, 3, seed=1)
        train_steps(twin, twin_opt, 3, seed=1)
        assert twin_opt._value_flat.tobytes() == opt._value_flat.tobytes()


def fixture_stream(n, seed):
    """The transitions the parent-commit fixture below was trained on."""
    rng = np.random.default_rng(seed)
    obs = rng.integers(-4, 5, size=(n, 2)) / 4.0
    next_obs = rng.integers(-4, 5, size=(n, 2)) / 4.0
    actions = rng.integers(2, size=(n, 1))
    rewards = rng.integers(-8, 1, size=n) / 4.0
    dones = rng.random(n) < 0.1
    return obs, actions, rewards, next_obs, dones


class TestParentCheckpoint:
    """``PARENT_STATE`` is a ``DQNAgent.state_dict()`` written by the
    per-parameter optimizer and layer-by-layer learn step, after 12
    transitions (``fixture_stream(12, 1)``).  ``RESUMED_*`` are what that
    agent produced on ``fixture_stream(12, 2)`` next."""

    def test_loads_with_unchanged_layout(self):
        agent = DQNAgent.from_state_dict(PARENT_STATE)
        assert json.loads(json.dumps(agent.state_dict())) == PARENT_STATE

    def test_resumes_bit_exactly(self):
        agent = DQNAgent.from_state_dict(PARENT_STATE)
        assert shares_buffers(agent.online.parameters(), agent.optimizer)
        agent.store_batch(*fixture_stream(12, 2))
        losses = agent.learn_batch(12)
        assert losses == RESUMED_LOSSES
        assert [p.value.ravel().tolist() for p in agent.online.parameters()] == (
            RESUMED_WEIGHTS
        )


RESUMED_LOSSES = (
    [0.08688383643691529, 0.4275761031127843, 0.6109595009411561, 0.2870160321132192,
     0.2310907980745905, 0.4280473771934347, 0.41998198362203176, 0.41692667619558843,
     0.09328280954916915, 0.5911306175925308, 0.972256471826461, 0.41305097688615355]
)
RESUMED_WEIGHTS = (
    [[0.9380701144671533, 1.7330852017338996, -0.5239333517007387, 1.6523578248422197,
      0.8046592809557067, 0.05036325698751155],
     [-0.01592030274106289, 0.016090928864266753, -0.017245144214255305],
     [0.4960125276866311, 0.10892862869898177, -0.7259618987960772, -0.3677941168721149,
      0.7979858780943482, -0.07019363987740661],
     [-0.018130204916120277, -0.012748462478877067]]
)
PARENT_STATE = (
    {"buffer": {"action_dim": 1,
                "actions": {"data": [1, 0, 0, 1, 0, 1, 1, 0],
                            "dtype": "int64",
                            "shape": [8, 1]},
                "capacity": 8,
                "cursor": 4,
                "dones": {"data": [False, False, False, False, False, False, False,
                                   False],
                          "dtype": "bool",
                          "shape": [8]},
                "exact": True,
                "next_obs": {"data": [-1.0, 0.5, -1.0, -0.5, 0.0, 0.0, -0.75, 1.0, 1.0,
                                      -0.75, -0.25, -0.25, 1.0, -0.75, 0.0, -0.5],
                             "dtype": "float64",
                             "shape": [8, 2]},
                "obs": {"data": [0.25, 0.0, -1.0, -1.0, 0.75, 0.5, 0.75, 0.0, -0.5,
                                 -0.5, 0.75, -0.25, -0.5, 0.75, -0.5, -0.25],
                        "dtype": "float64",
                        "shape": [8, 2]},
                "obs_dim": 2,
                "reward_dim": 1,
                "rewards": {"data": [-1.25, -0.75, -0.5, 0.0, -1.25, -0.75, -1.0, -0.5],
                            "dtype": "float64",
                            "shape": [8, 1]},
                "size": 8},
     "config": {"batch_size": 4,
                "buffer_capacity": 8,
                "double_dqn": True,
                "dueling": False,
                "epsilon_decay_steps": 5000,
                "epsilon_end": 0.05,
                "epsilon_start": 1.0,
                "gamma": 0.99,
                "grad_clip_norm": 10.0,
                "hidden": [3],
                "learn_start": 4,
                "learning_rate": 0.001,
                "per_alpha": 0.6,
                "per_beta_decay_steps": 20000,
                "per_beta_end": 1.0,
                "per_beta_start": 0.4,
                "per_method": "tree",
                "prioritized_replay": False,
                "target_sync_every": 5,
                "target_tau": None,
                "train_every": 1,
                "use_replay": True,
                "use_target_network": True},
     "epsilon_schedule": {"decay_steps": 5000,
                          "end": 0.05,
                          "start": 1.0,
                          "type": "linear"},
     "explore_rng": {"bit_generator": "PCG64",
                     "has_uint32": 0,
                     "state": {"inc": 95683993628166381975070909031099706881,
                               "state": 317285603720202990124147951882985210174},
                     "uinteger": 0},
     "kind": "dqn",
     "nvec": [2],
     "obs_dim": 2,
     "online": {"0:hidden0.weight": {"data": [0.9447399355282425, 1.723112350682211,
                                              -0.532766434403204, 1.6611083625534162,
                                              0.7997269202923993,
                                              0.043186597614553894],
                                     "shape": [2, 3]},
                "1:hidden0.bias": {"data": [-0.006342812050011245, 0.00611624762432991,
                                            -0.007885290230876816],
                                   "shape": [3]},
                "2:output.weight": {"data": [0.5053630792710532, 0.11311952167872474,
                                             -0.7166556149445923, -0.3604958171674228,
                                             0.8067380006828627, -0.06651639069584198],
                                    "shape": [3, 2]},
                "3:output.bias": {"data": [-0.008076861835558, -0.0057727606812003245],
                                  "shape": [2]}},
     "optimizer": {"beta1": 0.9,
                   "beta2": 0.999,
                   "eps": 1e-08,
                   "lr": 0.001,
                   "m": [{"data": [0.0003274431434225856, -0.010673315642890112,
                                   -0.1268220600567256, 0.00972527057972599,
                                   -0.002740157672013718, -0.1183099338028255],
                          "dtype": "float64",
                          "shape": [2, 3]},
                         {"data": [0.020810686799286555, -0.025295860163335637,
                                   0.20524256637577815],
                          "dtype": "float64",
                          "shape": [3]},
                         {"data": [0.014136805486460497, 0.07990042348020154,
                                   0.015538250954447507, 0.026620788851099003,
                                   0.07920050033236539, 0.0255798468496427],
                          "dtype": "float64",
                          "shape": [3, 2]},
                         {"data": [0.2693397280120453, 0.13957097334477025],
                          "dtype": "float64",
                          "shape": [2]}],
                   "t": 9,
                   "type": "Adam",
                   "v": [{"data": [2.3129074237774846e-06, 5.186227847888684e-06,
                                   0.0005431844992814361, 4.967349502283192e-06,
                                   3.7987996038351576e-07, 0.00046910815156254597],
                          "dtype": "float64",
                          "shape": [2, 3]},
                         {"data": [1.5216370285966971e-05, 3.623430585343177e-05,
                                   0.0013614838288959204],
                          "dtype": "float64",
                          "shape": [3]},
                         {"data": [7.80487373144313e-06, 0.0003636982405379673,
                                   9.417711130598326e-06, 6.246910106699505e-05,
                                   0.0002102795187102328, 4.841788837922025e-05],
                          "dtype": "float64",
                          "shape": [3, 2]},
                         {"data": [0.0022362468024850353, 0.0008710702642318207],
                          "dtype": "float64",
                          "shape": [2]}]},
     "sample_rng": {"bit_generator": "PCG64",
                    "has_uint32": 0,
                    "state": {"inc": 290640119496769051160529782570091796683,
                              "state": 335471350228343636875792019932055037278},
                    "uinteger": 3693196983},
     "target": {"0:hidden0.weight": {"data": [0.9458309862631497, 1.7197893929431132,
                                              -0.5360681524945271, 1.6635141187770557,
                                              0.7966553750493597,
                                              0.039940117811651694],
                                     "shape": [2, 3]},
                "1:hidden0.bias": {"data": [-0.0031831665772269367,
                                            0.003145447205884667,
                                            -0.004475294595866092],
                                   "shape": [3]},
                "2:output.weight": {"data": [0.5087685256006378, 0.11534106455195,
                                             -0.7132491208436865, -0.35815476622161185,
                                             0.8100544078181185, -0.06468642059228176],
                                    "shape": [3, 2]},
                "3:output.bias": {"data": [-0.004583469296406163,
                                           -0.003108767385503794],
                                  "shape": [2]}},
     "total_steps": 12,
     "total_updates": 9}
)
