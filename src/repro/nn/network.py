"""The MLP Q-network architecture used throughout the library.

The DAC'17 controller is a feed-forward network mapping the HVAC state
vector to one Q-value per discrete action.  :class:`MLP` wires Linear +
activation stacks with sensible initialization and exposes convenience
methods for target-network synchronization.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.initializers import he_uniform, xavier_uniform
from repro.nn.layers import Identity, Layer, Linear, ReLU, Sequential, Tanh
from repro.nn.parameter import Parameter
from repro.utils.seeding import RandomState, derive_rng, ensure_rng

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "identity": Identity}


class MLP(Layer):
    """Multi-layer perceptron: ``in_dim -> hidden... -> out_dim``.

    Parameters
    ----------
    in_dim, out_dim:
        Input feature and output (per-action Q) dimensionality.
    hidden:
        Sizes of the hidden layers, e.g. ``(64, 64)``.
    activation:
        Hidden nonlinearity: ``"relu"`` (default) or ``"tanh"``.
    rng:
        Seed or generator for weight initialization.
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
                    rng=derive_rng(rng, f"layer{i}"),
                    weight_init=hidden_init,
                    name=f"hidden{i}",
                )
            )
            layers.append(act_cls())
            prev = width
        layers.append(
            Linear(
                prev,
                self.out_dim,
                rng=derive_rng(rng, "output"),
                weight_init=xavier_uniform,
                name="output",
            )
        )
        self._net = Sequential(layers)

    # ------------------------------------------------------------------ api
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; accepts ``(batch, in_dim)`` or ``(in_dim,)``."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        out = self._net.forward(x)
        return out[0] if squeeze else out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate a ``(batch, out_dim)`` upstream gradient."""
        return self._net.backward(np.asarray(grad_out, dtype=np.float64))

    def parameters(self) -> List[Parameter]:
        return self._net.parameters()

    # --------------------------------------------------- target-net support
    def copy_weights_from(self, other: "MLP") -> None:
        """Hard-copy all weights from a same-architecture network."""
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("architectures differ: parameter counts do not match")
        for dst, src in zip(mine, theirs):
            dst.copy_from(src)

    def soft_update_from(self, other: "MLP", tau: float) -> None:
        """Polyak-average weights from ``other`` into this network."""
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("architectures differ: parameter counts do not match")
        for dst, src in zip(mine, theirs):
            dst.soft_update_from(src, tau)

    def clone(self) -> "MLP":
        """Create a new network with identical architecture and weights."""
        twin = MLP(
            self.in_dim,
            self.hidden,
            self.out_dim,
            activation=self.activation,
            rng=0,
        )
        twin.copy_weights_from(self)
        return twin

    def num_parameters(self) -> int:
        """Total count of trainable scalars."""
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:
        arch = " -> ".join(str(d) for d in (self.in_dim, *self.hidden, self.out_dim))
        return f"MLP({arch}, activation={self.activation!r})"
