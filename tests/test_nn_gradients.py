"""Numerical gradient checks for every differentiable layer and the loss.

Central finite differences against the analytic backward pass — the
strongest correctness evidence a from-scratch NN library can have.
"""

import numpy as np

from repro.nn.layers import (
    BatchNorm1D,
    Conv1D,
    Dense,
    Flatten,
    GlobalAvgPool1D,
    MaxPool1D,
    ReLU,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential

EPS = 1e-5
RNG = np.random.default_rng(42)


def numerical_gradient(fn, array, eps=EPS):
    """Central-difference gradient of scalar ``fn`` wrt ``array`` in place."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = fn()
        flat[index] = original - eps
        minus = fn()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return grad


def check_layer_gradients(layer, input_shape, batch=3, atol=1e-6):
    """Verify input and parameter gradients of one layer."""
    layer.build(input_shape)
    x = RNG.normal(size=(batch,) + tuple(input_shape))
    # Random projection makes the output a scalar loss.
    out_shape = layer.forward(x, training=True).shape
    projection = RNG.normal(size=out_shape)

    def loss():
        return float((layer.forward(x, training=True) * projection).sum())

    loss()  # populate caches
    analytic_input = layer.backward(projection)
    numeric_input = numerical_gradient(loss, x)
    np.testing.assert_allclose(analytic_input, numeric_input, atol=atol, rtol=1e-4)

    for key, param in layer.params.items():
        loss()
        layer.backward(projection)
        analytic = layer.grads[key].copy()
        numeric = numerical_gradient(loss, param)
        np.testing.assert_allclose(
            analytic, numeric, atol=atol, rtol=1e-4, err_msg=f"param {key}"
        )


class TestLayerGradients:
    def test_dense(self):
        check_layer_gradients(Dense(4, seed=0), (5,))

    def test_conv1d(self):
        check_layer_gradients(Conv1D(3, 3, seed=0), (2, 8))

    def test_relu(self):
        # Shift inputs away from the kink at 0.
        layer = ReLU()
        layer.build((6,))
        x = RNG.normal(size=(3, 6)) + np.where(RNG.random((3, 6)) > 0.5, 2.0, -2.0)
        projection = RNG.normal(size=(3, 6))

        def loss():
            return float((layer.forward(x, training=True) * projection).sum())

        loss()
        analytic = layer.backward(projection)
        numeric = numerical_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_maxpool(self):
        # Distinct values avoid argmax ties under perturbation.
        layer = MaxPool1D(2)
        layer.build((2, 6))
        # .copy() keeps the array contiguous so the finite-difference
        # helper's reshape(-1) stays a view onto the same memory.
        x = RNG.permutation(24).astype(np.float64).reshape(1, 2, 12)[:, :, :6].copy()
        projection = RNG.normal(size=(1, 2, 3))

        def loss():
            return float((layer.forward(x, training=True) * projection).sum())

        loss()
        analytic = layer.backward(projection)
        numeric = numerical_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_global_avg_pool(self):
        check_layer_gradients(GlobalAvgPool1D(), (3, 5))

    def test_flatten(self):
        check_layer_gradients(Flatten(), (2, 4))

    def test_batchnorm_dense(self):
        check_layer_gradients(BatchNorm1D(), (4,), batch=6, atol=1e-5)

    def test_batchnorm_conv(self):
        check_layer_gradients(BatchNorm1D(), (2, 5), batch=4, atol=1e-5)


class TestLossGradient:
    def test_cross_entropy(self):
        loss = CrossEntropyLoss()
        logits = RNG.normal(size=(4, 3))
        targets = np.array([0, 2, 1, 2])

        def value():
            return loss.forward(logits, targets)

        value()
        analytic = loss.backward()
        numeric = numerical_gradient(value, logits)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_cross_entropy_with_smoothing(self):
        loss = CrossEntropyLoss(label_smoothing=0.1)
        logits = RNG.normal(size=(3, 4))
        targets = np.array([1, 0, 3])

        def value():
            return loss.forward(logits, targets)

        value()
        analytic = loss.backward()
        numeric = numerical_gradient(value, logits)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestEndToEndGradient:
    def test_small_cnn_chain(self):
        """Whole-model gradient wrt input through conv/pool/dense."""
        model = Sequential(
            [
                Conv1D(2, 3, seed=1),
                ReLU(),
                MaxPool1D(2),
                Flatten(),
                Dense(3, seed=2),
            ]
        ).build((2, 10))
        loss = CrossEntropyLoss()
        x = RNG.normal(size=(2, 2, 10)) * 2.0
        targets = np.array([0, 2])

        def value():
            return loss.forward(model.forward(x, training=True), targets)

        value()
        analytic = model.backward(loss.backward())
        numeric = numerical_gradient(value, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-3)
