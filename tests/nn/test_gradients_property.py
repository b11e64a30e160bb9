"""Property-based gradient checks: backprop vs central finite differences.

These are the load-bearing correctness tests of the NumPy substrate —
if they hold, DQN's gradient steps are trustworthy.  The agents' fused
:class:`~repro.nn.TrainingPass` is checked byte for byte against the
layers' ``forward``/``backward``, so it inherits the same guarantee.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, Adam, DuelingMLP, TrainingPass, huber_loss, mse_loss

_dims = st.tuples(
    st.integers(min_value=1, max_value=4),  # in_dim
    st.integers(min_value=1, max_value=6),  # hidden width
    st.integers(min_value=1, max_value=3),  # out_dim
    st.integers(min_value=1, max_value=4),  # batch
    st.integers(min_value=0, max_value=10_000),  # seed
)


def numeric_param_grad(net, param, x, target, loss_fn, eps=1e-6):
    """Central finite-difference gradient of the loss w.r.t. one parameter."""
    grad = np.zeros_like(param.value)
    flat = param.value.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn(net.forward(x), target)
        flat[i] = orig - eps
        lo = loss_fn(net.forward(x), target)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


@settings(max_examples=15, deadline=None)
@given(_dims, st.sampled_from(["relu", "tanh"]))
def test_backprop_matches_finite_difference_mse(dims, activation):
    in_dim, width, out_dim, batch, seed = dims
    rng = np.random.default_rng(seed)
    net = MLP(in_dim, (width,), out_dim, activation=activation, rng=seed)
    x = rng.normal(size=(batch, in_dim))
    target = rng.normal(size=(batch, out_dim))

    pred = net.forward(x)
    _, dpred = mse_loss(pred, target, return_grad=True)
    for p in net.parameters():
        p.zero_grad()
    net.backward(dpred)

    for p in net.parameters():
        numeric = numeric_param_grad(net, p, x, target, mse_loss)
        # ReLU kinks can make a coordinate non-differentiable; tolerance
        # is loose but catches any systematic backprop error.
        assert np.allclose(p.grad, numeric, rtol=1e-4, atol=1e-6), p.name


@settings(max_examples=10, deadline=None)
@given(_dims)
def test_backprop_matches_finite_difference_huber(dims):
    in_dim, width, out_dim, batch, seed = dims
    rng = np.random.default_rng(seed + 1)
    net = MLP(in_dim, (width,), out_dim, activation="tanh", rng=seed)
    x = rng.normal(size=(batch, in_dim))
    target = rng.normal(scale=2.0, size=(batch, out_dim))

    pred = net.forward(x)
    _, dpred = huber_loss(pred, target, return_grad=True)
    for p in net.parameters():
        p.zero_grad()
    net.backward(dpred)

    def loss_fn(pred, tgt):
        return huber_loss(pred, tgt)

    for p in net.parameters():
        numeric = numeric_param_grad(net, p, x, target, loss_fn)
        assert np.allclose(p.grad, numeric, rtol=1e-4, atol=1e-6), p.name


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=1000),
)
def test_forward_is_deterministic(in_dim, out_dim, seed):
    net = MLP(in_dim, (4,), out_dim, rng=seed)
    x = np.random.default_rng(seed).normal(size=(3, in_dim))
    assert np.array_equal(net.forward(x), net.forward(x))


def sparse_td_grad(rng, batch, n_actions):
    """Sparse upstream grads, as the TD step feeds them: dead ReLU units
    then meet all-zero gradient columns."""
    return rng.normal(size=(batch, n_actions)) * (rng.random((batch, n_actions)) < 0.3)


@pytest.mark.parametrize("cls", [MLP, DuelingMLP])
@pytest.mark.parametrize("batch", [1, 32, 33])
def test_training_pass_matches_layers_bytes(cls, batch):
    """The pass returns the exact bytes of ``forward`` and of
    ``zero_grad(); backward`` -- Q-values and every parameter grad."""
    rng = np.random.default_rng(batch)
    net = cls(14, (64, 64), 12, rng=batch)
    Adam(net.parameters(), lr=1e-3)  # grads become views of a packed buffer
    x = rng.normal(size=(batch, 14))
    grad = sparse_td_grad(rng, batch, 12)

    train = TrainingPass(net, batch)
    q = train.forward(x).copy()
    train.backward(grad)
    pass_grads = [p.grad.copy() for p in net.parameters()]

    net.zero_grad()
    assert q.tobytes() == net.forward(x).tobytes()
    net.backward(grad)
    for got, p in zip(pass_grads, net.parameters()):
        assert got.tobytes() == p.grad.tobytes(), p.name
    assert train.forward(x) is train.forward(x)  # one preallocated output


@pytest.mark.parametrize("cls", [MLP, DuelingMLP])
def test_training_pass_backpropagates_leading_rows(cls):
    """A stacked ``[obs; next_obs]`` forward backpropagates only from the
    ``obs`` half: the same grads as the layers given zero upstream grad
    on the other half.  (Whether a stacked forward is byte-identical to
    two half-size forwards depends on BLAS blocking; the learner pins in
    ``tests/core/test_learner_pins.py`` check it at the agents' batch.)"""
    rng = np.random.default_rng(7)
    net = cls(14, (64, 64), 12, rng=7)
    x = rng.normal(size=(64, 14))
    grad = sparse_td_grad(rng, 32, 12)

    train = TrainingPass(net, 64, grad_rows=32)
    q = train.forward(x)
    train.backward(grad)
    pass_grads = [p.grad.copy() for p in net.parameters()]

    net.zero_grad()
    assert q.tobytes() == net.forward(x).tobytes()
    net.backward(np.vstack([grad, np.zeros_like(grad)]))
    for got, p in zip(pass_grads, net.parameters()):
        np.testing.assert_allclose(got, p.grad, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_training_pass_rejects_non_relu(activation):
    with pytest.raises(ValueError, match="ReLU"):
        TrainingPass(MLP(3, (4,), 2, activation=activation, rng=0), 8)


def test_training_pass_rejects_wrong_batch_shape():
    train = TrainingPass(MLP(3, (4,), 2, rng=0), 8)
    with pytest.raises(ValueError, match="expected input"):
        train.forward(np.zeros((7, 3)))
