"""First-order optimizers over :class:`~repro.nn.parameter.Parameter` lists.

Optimizers mutate ``param.value`` in place using the gradient accumulated
in ``param.grad``; both are views into buffers the optimizer packs at
construction.  Internal state (momentum buffers, Adam moments) is keyed
by position in the parameter list, so the list must stay stable for the
lifetime of the optimizer — which it does for our static MLPs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.parameter import Parameter


def clip_gradients(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm so callers can log it.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm


class Optimizer:
    """Base optimizer holding a packed parameter list and a learning rate.

    The optimizer packs the parameters it manages: their values live in
    one flat buffer and their gradients in another, and each
    ``Parameter.value`` / ``.grad`` is rebound to a reshaped view of its
    slice.  Layers keep reading and writing their parameters as before,
    while :meth:`zero_grad` is one ``fill`` and every update below runs
    as a few whole-buffer elementwise ops — bit-identical to the
    per-parameter formulation (no cross-element reductions are involved)
    but paying NumPy dispatch once per optimizer rather than once per
    parameter, which dominates at this library's network sizes.
    """

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = float(lr)
        self._value_flat, values = self._flat_views()
        self._grad_flat, grads = self._flat_views()
        for p, value, grad in zip(self.params, values, grads):
            np.copyto(value, p.value)
            np.copyto(grad, p.grad)
            p.value, p.grad = value, grad

    def _flat_views(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """A zeroed flat buffer and its per-parameter reshaped views."""
        flat = np.zeros(sum(p.size for p in self.params))
        views = []
        offset = 0
        for p in self.params:
            views.append(flat[offset : offset + p.size].reshape(p.shape))
            offset += p.size
        return flat, views

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset gradients of all managed parameters."""
        self._grad_flat.fill(0.0)


class SGD(Optimizer):
    """Vanilla stochastic gradient descent."""

    def step(self) -> None:
        self._value_flat -= self.lr * self._grad_flat


class Momentum(Optimizer):
    """SGD with classical (heavy-ball) momentum."""

    def __init__(self, params: Sequence[Parameter], lr: float, momentum: float = 0.9) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity_flat, self._velocity = self._flat_views()

    def step(self) -> None:
        v = self._velocity_flat
        v *= self.momentum
        v -= self.lr * self._grad_flat
        self._value_flat += v


class RMSProp(Optimizer):
    """RMSProp — the optimizer used by the original DQN paper."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        decay: float = 0.95,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.decay = float(decay)
        self.eps = float(eps)
        self._mean_sq_flat, self._mean_sq = self._flat_views()

    def step(self) -> None:
        g, ms = self._grad_flat, self._mean_sq_flat
        ms *= self.decay
        ms += (1.0 - self.decay) * g**2
        self._value_flat -= self.lr * g / (np.sqrt(ms) + self.eps)


class Adam(Optimizer):
    """Adam with bias-corrected first and second moments.

    The moments are flat buffers too, with per-parameter views (``_m`` /
    ``_v``, the layout the checkpoint format serializes).  :meth:`step`
    reads the packed gradient buffer directly and leaves it untouched.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m_flat, self._m = self._flat_views()
        self._v_flat, self._v = self._flat_views()
        # Per-step scratch: the denominator and the update itself.
        self._denom_flat = np.zeros_like(self._value_flat)
        self._update_flat = np.zeros_like(self._value_flat)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        g, m, v = self._grad_flat, self._m_flat, self._v_flat
        scratch, update = self._denom_flat, self._update_flat
        # m <- beta1*m + (1-beta1)*g ; v <- beta2*v + (1-beta2)*g^2
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=scratch)
        m += scratch
        v *= self.beta2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        # update <- lr * (m/bc1) / (sqrt(v/bc2) + eps), left-to-right as
        # written.
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(m, bc1, out=update)
        update *= self.lr
        update /= scratch
        self._value_flat -= update
