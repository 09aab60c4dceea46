"""Numerical gradient checks: backward passes against finite differences.

The training dynamics of the whole reproduction sit on these backward
passes, so each trainable layer (and the loss) is verified against central
finite differences.
"""

import numpy as np
import pytest

from repro.nn.layers import BatchNorm, Conv2D, Dense, Flatten, MaxPool2D, ReLU, Softmax
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential

EPS = 1e-5
TOL = 1e-4


def numeric_param_grad(layer, x, key, loss_of_output):
    """Finite-difference dLoss/dparam[key] for a layer."""
    param = layer.params[key]
    grad = np.zeros_like(param)
    flat = param.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        plus = loss_of_output(layer.forward(x, training=True))
        flat[i] = original - EPS
        minus = loss_of_output(layer.forward(x, training=True))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * EPS)
    return grad


def numeric_input_grad(forward, x, loss_of_output):
    """Finite-difference dLoss/dx."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        plus = loss_of_output(forward(x))
        flat[i] = original - EPS
        minus = loss_of_output(forward(x))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * EPS)
    return grad


def quadratic_loss(out):
    return float(0.5 * (out**2).sum())


class TestDenseGradients:
    def test_param_and_input_grads(self):
        rng = np.random.default_rng(0)
        layer = Dense(3)
        layer.build(rng, (4,))
        x = rng.normal(size=(5, 4))

        out = layer.forward(x, training=True)
        layer.zero_grads()
        input_grad = layer.backward(out)  # dL/dout = out for quadratic loss

        for key in ("W", "b"):
            numeric = numeric_param_grad(layer, x, key, quadratic_loss)
            np.testing.assert_allclose(layer.grads[key], numeric, atol=TOL)

        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        np.testing.assert_allclose(input_grad, numeric_x, atol=TOL)


class TestConvGradients:
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_param_and_input_grads(self, padding):
        rng = np.random.default_rng(1)
        layer = Conv2D(2, kernel_size=3, padding=padding)
        layer.build(rng, (5, 5, 2))
        x = rng.normal(size=(2, 5, 5, 2))

        out = layer.forward(x, training=True)
        layer.zero_grads()
        input_grad = layer.backward(out)

        for key in ("W", "b"):
            numeric = numeric_param_grad(layer, x, key, quadratic_loss)
            np.testing.assert_allclose(layer.grads[key], numeric, atol=TOL)

        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        np.testing.assert_allclose(input_grad, numeric_x, atol=TOL)

    def test_strided_input_grad(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(2, kernel_size=2, stride=2, padding="valid")
        layer.build(rng, (4, 4, 1))
        x = rng.normal(size=(1, 4, 4, 1))
        out = layer.forward(x, training=True)
        layer.zero_grads()
        input_grad = layer.backward(out)
        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        np.testing.assert_allclose(input_grad, numeric_x, atol=TOL)


class TestPoolAndActivationGradients:
    def test_maxpool_input_grad(self):
        rng = np.random.default_rng(3)
        layer = MaxPool2D(2)
        layer.build(rng, (4, 4, 2))
        x = rng.normal(size=(2, 4, 4, 2))
        out = layer.forward(x, training=True)
        input_grad = layer.backward(out)
        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        np.testing.assert_allclose(input_grad, numeric_x, atol=TOL)

    def test_relu_input_grad(self):
        rng = np.random.default_rng(4)
        layer = ReLU()
        x = rng.normal(size=(3, 6)) + 0.1  # keep away from the kink
        out = layer.forward(x, training=True)
        input_grad = layer.backward(out)
        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        np.testing.assert_allclose(input_grad, numeric_x, atol=TOL)

    def test_softmax_input_grad(self):
        rng = np.random.default_rng(5)
        layer = Softmax()
        x = rng.normal(size=(3, 4))
        out = layer.forward(x, training=True)
        input_grad = layer.backward(out)
        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        np.testing.assert_allclose(input_grad, numeric_x, atol=TOL)

    def test_batchnorm_grads(self):
        rng = np.random.default_rng(6)
        layer = BatchNorm()
        layer.build(rng, (3,))
        x = rng.normal(size=(8, 3))
        out = layer.forward(x, training=True)
        layer.zero_grads()
        input_grad = layer.backward(out)
        for key in ("gamma", "beta"):
            numeric = numeric_param_grad(layer, x, key, quadratic_loss)
            np.testing.assert_allclose(layer.grads[key], numeric, atol=TOL)
        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        np.testing.assert_allclose(input_grad, numeric_x, atol=1e-3)


class TestLossGradients:
    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(7)
        loss_fn = CrossEntropyLoss()
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        analytic = loss_fn.gradient(logits, labels)

        numeric = np.zeros_like(logits)
        flat = logits.ravel()
        num_flat = numeric.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + EPS
            plus = loss_fn.loss(logits, labels)
            flat[i] = original - EPS
            minus = loss_fn.loss(logits, labels)
            flat[i] = original
            num_flat[i] = (plus - minus) / (2 * EPS)
        np.testing.assert_allclose(analytic, numeric, atol=TOL)


class TestEndToEndGradient:
    def test_mlp_chain(self):
        """Full model backward matches finite differences on the loss."""
        rng = np.random.default_rng(10)
        model = Sequential([Dense(6), ReLU(), Dense(3)]).build(rng, (4,))
        loss_fn = CrossEntropyLoss()
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)

        model.zero_grads()
        logits = model.forward(x, training=True)
        _loss, grad = loss_fn.loss_and_grad(logits, y)
        model.backward(grad)
        analytic = {k: v.copy() for k, v in model.gradients().items()}

        for key, param in model.parameters().items():
            numeric = np.zeros_like(param)
            flat, num_flat = param.ravel(), numeric.ravel()
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + EPS
                plus = loss_fn.loss(model.forward(x, training=True), y)
                flat[i] = original - EPS
                minus = loss_fn.loss(model.forward(x, training=True), y)
                flat[i] = original
                num_flat[i] = (plus - minus) / (2 * EPS)
            np.testing.assert_allclose(analytic[key], numeric, atol=TOL, err_msg=key)

    def test_flatten_conv_chain_shapes(self):
        rng = np.random.default_rng(11)
        model = Sequential(
            [Conv2D(2, kernel_size=3), ReLU(), MaxPool2D(2), Flatten(), Dense(3)]
        ).build(rng, (4, 4, 1))
        x = rng.normal(size=(2, 4, 4, 1))
        logits = model.forward(x, training=True)
        assert logits.shape == (2, 3)
        grad = model.backward(np.ones_like(logits))
        assert grad.shape == x.shape
