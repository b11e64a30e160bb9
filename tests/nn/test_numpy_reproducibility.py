"""Networks and agents are plain numpy: same seed, same bytes.

Layers compute ``x @ W + b`` and friends directly, so a forward /
backward pass must be bit-for-bit reproducible across two networks built
from one seed, and the batched policies must agree exactly with their
row-by-row counterparts.
"""

import numpy as np

from repro import nn
from repro.core import DQNConfig, FactoredDQNAgent
from repro.core.dqn import DQNAgent
from repro.env.spaces import MultiDiscrete


def _forward_backward(net, x):
    """Output, input gradient and parameter gradients as one byte string."""
    y = net.forward(x)
    dx = net.backward(np.ones_like(y))
    return b"".join(
        [y.tobytes(), dx.tobytes()] + [p.grad.tobytes() for p in net.parameters()]
    )


class TestLayerBytes:
    def test_linear_is_the_affine_map(self, sweep_seed):
        rng = np.random.default_rng(sweep_seed)
        layer = nn.Linear(5, 3, rng=sweep_seed)
        x = rng.normal(size=(7, 5))
        g = rng.normal(size=(7, 3))
        w, b = layer.weight.value, layer.bias.value
        assert layer.forward(x).tobytes() == (x @ w + b).tobytes()
        assert layer.backward(g).tobytes() == (g @ w.T).tobytes()
        assert layer.weight.grad.tobytes() == (x.T @ g).tobytes()
        assert layer.bias.grad.tobytes() == g.sum(axis=0).tobytes()

    def test_mlp_forward_backward_byte_identical(self, sweep_seed):
        x = np.random.default_rng(sweep_seed).normal(size=(8, 6))
        n1 = nn.MLP(6, (16, 16), 4, rng=sweep_seed)
        n2 = nn.MLP(6, (16, 16), 4, rng=sweep_seed)
        assert _forward_backward(n1, x) == _forward_backward(n2, x)

    def test_tanh_mlp_forward_backward_byte_identical(self, sweep_seed):
        x = np.random.default_rng(sweep_seed).normal(size=(8, 6))
        n1 = nn.MLP(6, (12,), 3, activation="tanh", rng=sweep_seed)
        n2 = nn.MLP(6, (12,), 3, activation="tanh", rng=sweep_seed)
        assert _forward_backward(n1, x) == _forward_backward(n2, x)

    def test_dueling_forward_backward_byte_identical(self, sweep_seed):
        x = np.random.default_rng(sweep_seed).normal(size=(8, 6))
        n1 = nn.DuelingMLP(6, (16, 16), 4, rng=sweep_seed)
        n2 = nn.DuelingMLP(6, (16, 16), 4, rng=sweep_seed)
        assert _forward_backward(n1, x) == _forward_backward(n2, x)


class TestAgentBytes:
    def test_same_seed_agents_are_byte_identical(self, sweep_seed):
        space = MultiDiscrete([4, 4])
        a1 = DQNAgent(8, space, rng=sweep_seed)
        a2 = DQNAgent(8, space, rng=sweep_seed)
        for p1, p2 in zip(a1.online.parameters(), a2.online.parameters()):
            assert p1.value.tobytes() == p2.value.tobytes()
        obs = np.random.default_rng(sweep_seed).normal(size=(16, 8))
        assert a1.select_actions(obs).tobytes() == a2.select_actions(obs).tobytes()

    def test_factored_select_actions_matches_rowwise(self, sweep_seed):
        agent = FactoredDQNAgent(
            6, MultiDiscrete([3, 4, 2]), config=DQNConfig(), rng=sweep_seed
        )
        obs = np.random.default_rng(sweep_seed).normal(size=(10, 6))
        batched = agent.select_actions(obs)
        rowwise = np.stack([agent.select_action(row) for row in obs])
        np.testing.assert_array_equal(batched, rowwise)
