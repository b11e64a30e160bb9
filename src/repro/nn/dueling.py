"""Dueling Q-network architecture (Wang et al. 2016).

Splits the head of the Q-network into a scalar state-value stream ``V``
and a per-action advantage stream ``A``, combined as

    Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a')

so the network can learn how good a state is independently of the action
choice — useful in HVAC where many off-peak states have near-identical
action values.  This is an extension of the DAC'17 controller, toggled
with ``DQNConfig(dueling=True)``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.initializers import he_uniform, xavier_uniform
from repro.nn.layers import Layer, Linear, ReLU, Sequential, Tanh
from repro.nn.parameter import Parameter
from repro.utils.seeding import RandomState, derive_rng, ensure_rng

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh}


class DuelingMLP(Layer):
    """Shared trunk with value and advantage heads.

    Interface-compatible with :class:`~repro.nn.network.MLP` (forward /
    backward / parameters / clone / target-net sync), so the DQN agent
    can swap it in transparently.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        *,
        activation: str = "relu",
        rng: RandomState | int | None = None,
    ) -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        if not hidden:
            raise ValueError("dueling net needs at least one hidden layer")
        rng = ensure_rng(rng)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.activation = activation

        hidden_init = he_uniform if activation == "relu" else xavier_uniform
        act_cls = _ACTIVATIONS[activation]
        layers: List[Layer] = []
        prev = self.in_dim
        for i, width in enumerate(self.hidden):
            layers.append(
                Linear(
                    prev,
                    width,
                    rng=derive_rng(rng, f"trunk{i}"),
                    weight_init=hidden_init,
                    name=f"trunk{i}",
                )
            )
            layers.append(act_cls())
            prev = width
        self._trunk = Sequential(layers)
        self._value_head = Linear(
            prev, 1, rng=derive_rng(rng, "value"), weight_init=xavier_uniform,
            name="value_head",
        )
        self._adv_head = Linear(
            prev, self.out_dim, rng=derive_rng(rng, "advantage"),
            weight_init=xavier_uniform, name="advantage_head",
        )

    # ------------------------------------------------------------- forward
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values via the dueling combination (mean-subtracted A)."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        features = self._trunk.forward(x)
        value = self._value_head.forward(features)  # (B, 1)
        adv = self._adv_head.forward(features)  # (B, A)
        q = value + adv - adv.mean(axis=1, keepdims=True)
        return q[0] if squeeze else q

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop through the combination, both heads, and the trunk.

        dQ/dV is a row-sum; dQ/dA_j subtracts the row-mean of the
        upstream gradient (the Jacobian of the mean-centering).
        """
        grad_out = np.asarray(grad_out, dtype=np.float64)
        grad_value = grad_out.sum(axis=1, keepdims=True)
        grad_adv = grad_out - grad_out.mean(axis=1, keepdims=True)
        grad_features = self._value_head.backward(grad_value)
        grad_features = grad_features + self._adv_head.backward(grad_adv)
        return self._trunk.backward(grad_features)

    def parameters(self) -> List[Parameter]:
        return (
            self._trunk.parameters()
            + self._value_head.parameters()
            + self._adv_head.parameters()
        )

    # --------------------------------------------------- target-net support
    def copy_weights_from(self, other: "DuelingMLP") -> None:
        """Hard-copy all weights from a same-architecture network."""
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("architectures differ: parameter counts do not match")
        for dst, src in zip(mine, theirs):
            dst.copy_from(src)

    def soft_update_from(self, other: "DuelingMLP", tau: float) -> None:
        """Polyak-average weights from ``other`` into this network."""
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("architectures differ: parameter counts do not match")
        for dst, src in zip(mine, theirs):
            dst.soft_update_from(src, tau)

    def clone(self) -> "DuelingMLP":
        """Create a new network with identical architecture and weights."""
        twin = DuelingMLP(
            self.in_dim, self.hidden, self.out_dim,
            activation=self.activation, rng=0,
        )
        twin.copy_weights_from(self)
        return twin

    def num_parameters(self) -> int:
        """Total count of trainable scalars."""
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:
        arch = " -> ".join(str(d) for d in (self.in_dim, *self.hidden))
        return f"DuelingMLP({arch} -> [V(1) | A({self.out_dim})])"
