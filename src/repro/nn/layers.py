"""Feed-forward layers with explicit forward/backward passes.

Each layer caches what it needs from ``forward`` and consumes an upstream
gradient in ``backward``, returning the gradient with respect to its input
while accumulating parameter gradients in place.  The contract is batch
first: inputs are ``(batch, features)``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.nn.initializers import he_uniform
from repro.nn.parameter import Parameter
from repro.utils.seeding import RandomState, ensure_rng


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_out`` and return the gradient w.r.t. input."""
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Return the layer's trainable parameters (possibly empty)."""
        return []

    def zero_grad(self) -> None:
        """Reset gradients of all parameters in the layer."""
        for p in self.parameters():
            p.zero_grad()


class Linear(Layer):
    """Affine map ``y = x @ W + b`` with shape ``(in_dim, out_dim)``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        rng: RandomState | int | None = None,
        weight_init: Callable[[RandomState, int, int], np.ndarray] = he_uniform,
        name: str = "linear",
    ) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"dims must be > 0, got in={in_dim} out={out_dim}")
        rng = ensure_rng(rng)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.weight = Parameter(weight_init(rng, in_dim, out_dim), f"{name}.weight")
        self.bias = Parameter(np.zeros(out_dim), f"{name}.bias")
        self._last_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"{self.weight.name}: expected input (batch, {self.in_dim}), got {x.shape}"
            )
        self._last_input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError("backward called before forward")
        x = self._last_input
        grad_out = np.asarray(grad_out, dtype=np.float64)
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Elementwise rectifier ``max(x, 0)``."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_out, 0.0)


class Tanh(Layer):
    """Elementwise hyperbolic tangent."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(np.asarray(x, dtype=np.float64))
        return self._output

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._output**2)


class Identity(Layer):
    """No-op layer (useful as a configurable output activation)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Sequential(Layer):
    """Composes layers front to back; backward runs them in reverse."""

    def __init__(self, layers: Iterable[Layer]) -> None:
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("Sequential requires at least one layer")

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params
