"""A fixed-batch training pass over a ReLU Q-network.

:class:`TrainingPass` runs the same arithmetic as ``net.forward`` followed
by ``net.zero_grad(); net.backward(grad)``, byte for byte, but for one
fixed row count and without allocating: every activation, ReLU mask and
upstream-gradient buffer is preallocated, the forward writes into them
with ``out=`` ufuncs, and the backward writes each weight and bias
gradient straight into ``Parameter.grad`` — which, under an optimizer,
is a view of its packed gradient buffer.

The forward may run over more rows than the backward: a DQN step stacks
``[obs; next_obs]`` so one forward yields both the online Q-values it
trains and the ones its bootstrap targets read, then backpropagates from
the leading ``grad_rows`` (the ``obs`` half) of the cached activations.

The pass covers :class:`~repro.nn.network.MLP` and
:class:`~repro.nn.dueling.DuelingMLP` with ReLU hidden layers, the only
activation the agents build.  ``Layer.forward``/``backward`` remain the
inference path and the reference the pass is tested against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.dueling import DuelingMLP
from repro.nn.layers import Linear
from repro.nn.network import MLP


class TrainingPass:
    """Preallocated forward/backward of ``net`` over a fixed batch.

    Parameters
    ----------
    net:
        An :class:`MLP` or :class:`DuelingMLP` with ReLU activations.
    rows:
        Row count of every :meth:`forward` input.
    grad_rows:
        Leading rows :meth:`backward` propagates from (default ``rows``).
    """

    def __init__(self, net, rows: int, grad_rows: Optional[int] = None) -> None:
        if isinstance(net, DuelingMLP):
            trunk, heads = net._trunk.layers, [net._value_head, net._adv_head]
        elif isinstance(net, MLP):
            trunk, heads = net._net.layers[:-1], net._net.layers[-1:]
        else:
            raise TypeError(f"no training pass for {type(net).__name__}")
        if net.activation != "relu":
            raise ValueError(
                f"the training pass supports ReLU nets only, got {net.activation!r}"
            )
        if not trunk:
            raise ValueError("the training pass needs at least one hidden layer")
        grad_rows = rows if grad_rows is None else grad_rows
        if not 1 <= grad_rows <= rows:
            raise ValueError(f"need 1 <= grad_rows <= rows, got {grad_rows}, {rows}")
        self.rows, self.grad_rows = int(rows), int(grad_rows)
        self.in_dim, self.out_dim = net.in_dim, net.out_dim
        self._dueling = isinstance(net, DuelingMLP)

        # The trunk alternates Linear and ReLU layers.
        self._trunk: List[Tuple[Linear, np.ndarray, np.ndarray, np.ndarray]] = [
            (
                layer,
                np.zeros((rows, layer.out_dim)),  # ReLU output
                np.zeros((rows, layer.out_dim), dtype=bool),  # ReLU mask
                np.zeros((grad_rows, layer.out_dim)),  # grad at ReLU output
            )
            for layer in trunk[0::2]
        ]
        self._heads = heads
        self._x: Optional[np.ndarray] = None
        width, n_out = self._trunk[-1][0].out_dim, self.out_dim
        self._q = np.zeros((rows, n_out))
        if self._dueling:
            self._value = np.zeros((rows, 1))
            self._adv = np.zeros((rows, n_out))
            self._adv_mean = np.zeros((rows, 1))
            self._grad_value = np.zeros((grad_rows, 1))
            self._grad_mean = np.zeros((grad_rows, 1))
            self._grad_adv = np.zeros((grad_rows, n_out))
            self._grad_features = np.zeros((grad_rows, width))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values of the ``(rows, in_dim)`` batch ``x``.

        The result is a buffer the next call overwrites; ``x`` is kept
        (not copied) for :meth:`backward`.
        """
        if x.shape != (self.rows, self.in_dim):
            raise ValueError(
                f"expected input ({self.rows}, {self.in_dim}), got {x.shape}"
            )
        self._x = h = x
        for layer, act, mask, _ in self._trunk:
            np.matmul(h, layer.weight.value, out=act)
            act += layer.bias.value
            np.greater(act, 0.0, out=mask)
            np.maximum(act, 0.0, out=act)
            h = act
        if not self._dueling:
            head = self._heads[0]
            np.matmul(h, head.weight.value, out=self._q)
            self._q += head.bias.value
            return self._q
        value_head, adv_head = self._heads
        np.matmul(h, value_head.weight.value, out=self._value)
        self._value += value_head.bias.value
        np.matmul(h, adv_head.weight.value, out=self._adv)
        self._adv += adv_head.bias.value
        # Q = V + A - mean_a A, evaluated left to right as DuelingMLP does.
        np.add.reduce(self._adv, axis=1, keepdims=True, out=self._adv_mean)
        self._adv_mean /= self.out_dim
        np.add(self._value, self._adv, out=self._q)
        self._q -= self._adv_mean
        return self._q

    def backward(self, grad_q: np.ndarray) -> None:
        """Set every parameter's grad from ``dL/dQ`` of the leading rows.

        ``grad_q`` is ``(grad_rows, out_dim)``.  The grads are written,
        not accumulated: the result equals ``zero_grad()`` followed by
        ``backward`` through the layers.
        """
        if self._x is None:
            raise RuntimeError("backward called before forward")
        n = self.grad_rows
        features = self._trunk[-1][1][:n]
        grad = self._trunk[-1][3]
        if not self._dueling:
            self._linear_backward(self._heads[0], features, grad_q, grad)
        else:
            # dQ/dV is a row-sum; dQ/dA subtracts the row-mean.
            value_head, adv_head = self._heads
            np.add.reduce(grad_q, axis=1, keepdims=True, out=self._grad_value)
            np.divide(self._grad_value, self.out_dim, out=self._grad_mean)
            np.subtract(grad_q, self._grad_mean, out=self._grad_adv)
            self._linear_backward(value_head, features, self._grad_value, grad)
            self._linear_backward(
                adv_head, features, self._grad_adv, self._grad_features
            )
            grad += self._grad_features
        for i in range(len(self._trunk) - 1, -1, -1):
            layer, _, mask, grad = self._trunk[i]
            grad *= mask[:n]
            if i:
                _, below, _, grad_below = self._trunk[i - 1]
                self._linear_backward(layer, below[:n], grad, grad_below)
            else:
                self._linear_backward(layer, self._x[:n], grad, None)

    @staticmethod
    def _linear_backward(
        layer: Linear,
        x: np.ndarray,
        grad_out: np.ndarray,
        grad_in: Optional[np.ndarray],
    ) -> None:
        """Write ``layer``'s grads and, if asked, the grad at its input."""
        np.matmul(x.T, grad_out, out=layer.weight.grad)
        # Summing onto 0.0 reproduces ``zero_grad(); grad += sum`` exactly,
        # down to the sign of an all-zero column.
        np.add.reduce(grad_out, axis=0, out=layer.bias.grad, initial=0.0)
        if grad_in is not None:
            np.matmul(grad_out, layer.weight.value.T, out=grad_in)
