"""Pure-NumPy deep-learning substrate used by the DQN agent.

The DAC'17 paper's controller is a multi-layer perceptron Q-network.  No
GPU framework is assumed here: layers implement ``forward``/``backward``
explicitly, and optimizers consume the per-parameter gradients that
``backward`` accumulates.  Optimizers pack their parameters into flat
buffers; :class:`TrainingPass` is the agents' allocation-free
forward/backward over a fixed batch, byte-identical to the layers'.
Gradient correctness is property-tested against finite differences in
``tests/nn``.

Typical usage::

    from repro import nn
    net = nn.MLP(in_dim=8, hidden=(64, 64), out_dim=5)
    opt = nn.Adam(net.parameters(), lr=1e-3)
    pred = net.forward(x)                # (batch, 5)
    loss, dloss = nn.huber_loss(pred, target, return_grad=True)
    net.zero_grad(); net.backward(dloss); opt.step()
"""

from repro.nn.layers import Identity, Layer, Linear, ReLU, Sequential, Tanh
from repro.nn.initializers import he_uniform, xavier_uniform, zeros_init
from repro.nn.losses import huber_loss, mse_loss
from repro.nn.network import MLP
from repro.nn.dueling import DuelingMLP
from repro.nn.optim import SGD, Adam, Momentum, Optimizer, RMSProp, clip_gradients
from repro.nn.parameter import Parameter
from repro.nn.train_pass import TrainingPass
from repro.nn.serialization import (
    decode_array,
    encode_array,
    load_optimizer_state_dict,
    load_state_dict,
    optimizer_state_dict,
    state_dict,
)

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Tanh",
    "Identity",
    "Sequential",
    "MLP",
    "DuelingMLP",
    "Parameter",
    "TrainingPass",
    "he_uniform",
    "xavier_uniform",
    "zeros_init",
    "mse_loss",
    "huber_loss",
    "Optimizer",
    "SGD",
    "Momentum",
    "RMSProp",
    "Adam",
    "clip_gradients",
    "state_dict",
    "load_state_dict",
    "encode_array",
    "decode_array",
    "optimizer_state_dict",
    "load_optimizer_state_dict",
]
