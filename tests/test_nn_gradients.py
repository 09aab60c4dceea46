"""Numerical gradient checks: backward passes against finite differences.

The training dynamics of the whole reproduction sit on these backward
passes, so each trainable layer (and the loss) is verified against central
finite differences.
"""

import numpy as np
import pytest

from repro.data.synthetic import FLAT_DIM, SyntheticImageDataset, SyntheticSpec
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import cross_entropy, cross_entropy_grad
from repro.nn.model import Sequential
from repro.nn.models import MODEL_BUILDERS, build_model

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

    @pytest.mark.parametrize(
        "batch,fan_in,units", [(1, 1, 1), (1, 7, 3), (4, 1, 5), (6, 9, 2), (3, 4, 4)]
    )
    def test_param_and_input_grads_across_shapes(self, batch, fan_in, units):
        """Single-row batches and one-wide layers included: the sums over
        the batch axis and the ``x.T`` product must not collapse a size-1 axis."""
        rng = np.random.default_rng(batch * 100 + fan_in * 10 + units)
        layer = Dense(units)
        layer.build(rng, (fan_in,))
        layer.params["b"][...] = rng.normal(size=units)
        x = rng.normal(size=(batch, fan_in))

        out = layer.forward(x, training=True)
        input_grad = layer.backward(out)

        for key in ("W", "b"):
            assert layer.grads[key].shape == layer.params[key].shape
            numeric = numeric_param_grad(layer, x, key, quadratic_loss)
            np.testing.assert_allclose(layer.grads[key], numeric, atol=TOL)
        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        assert input_grad.shape == x.shape
        np.testing.assert_allclose(input_grad, numeric_x, atol=TOL)

    def test_weight_only_backward_writes_the_same_grads(self):
        """``input_grad=False`` (nothing below trains) skips dL/dx only."""
        rng = np.random.default_rng(2)
        layer = Dense(3)
        layer.build(rng, (4,))
        x = rng.normal(size=(5, 4))
        grad_out = rng.normal(size=(5, 3))
        layer.forward(x, training=True)
        layer.backward(grad_out)
        full = {key: value.copy() for key, value in layer.grads.items()}
        assert layer.backward(grad_out, input_grad=False) is None
        for key, value in full.items():
            np.testing.assert_array_equal(layer.grads[key], value)


class TestPoolAndActivationGradients:
    def test_relu_input_grad(self):
        rng = np.random.default_rng(4)
        layer = ReLU()
        x = rng.normal(size=(3, 6)) + 0.1  # keep away from the kink
        out = layer.forward(x, training=True)
        input_grad = layer.backward(out)
        numeric_x = numeric_input_grad(lambda v: layer.forward(v, training=True), x, quadratic_loss)
        np.testing.assert_allclose(input_grad, numeric_x, atol=TOL)


class TestLossGradients:
    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        analytic = cross_entropy_grad(logits, labels)

        numeric = np.zeros_like(logits)
        flat = logits.ravel()
        num_flat = numeric.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + EPS
            plus = cross_entropy(logits, labels)
            flat[i] = original - EPS
            minus = cross_entropy(logits, labels)
            flat[i] = original
            num_flat[i] = (plus - minus) / (2 * EPS)
        np.testing.assert_allclose(analytic, numeric, atol=TOL)

    @pytest.mark.parametrize("batch,classes", [(1, 2), (4, 10), (9, 3)])
    def test_cross_entropy_gradient_across_shapes(self, batch, classes):
        rng = np.random.default_rng(batch + classes)
        logits = rng.normal(scale=3.0, size=(batch, classes))
        labels = rng.integers(0, classes, size=batch)
        analytic = cross_entropy_grad(logits, labels)
        numeric = numeric_input_grad(lambda v: cross_entropy(v, labels), logits, float)
        np.testing.assert_allclose(analytic, numeric, atol=TOL)


class TestEndToEndGradient:
    def test_mlp_chain(self):
        """Full model backward matches finite differences on the loss."""
        rng = np.random.default_rng(10)
        model = Sequential([Dense(6), ReLU(), Dense(3)]).build(rng, (4,))
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)

        model.zero_grads()
        model.backward(cross_entropy_grad(model.forward(x, training=True), y))
        analytic = {k: v.copy() for k, v in model.gradients().items()}

        for key, param in model.parameters().items():
            numeric = np.zeros_like(param)
            flat, num_flat = param.ravel(), numeric.ravel()
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + EPS
                plus = cross_entropy(model.forward(x, training=True), y)
                flat[i] = original - EPS
                minus = cross_entropy(model.forward(x, training=True), y)
                flat[i] = original
                num_flat[i] = (plus - minus) / (2 * EPS)
            np.testing.assert_allclose(analytic[key], numeric, atol=TOL, err_msg=key)

    @pytest.mark.parametrize("kind", sorted(MODEL_BUILDERS))
    def test_registered_model_on_flat_samples(self, kind):
        """Each registered model's backward on synthetic FLAT_DIM samples
        matches finite differences of ``loss()`` at a few entries of every
        parameter.  An untrained model's logits on raw pixels are large
        enough that some label's probability falls under 1e-12, so this
        holds only while the reported loss is the exact cross entropy."""
        factory = SyntheticImageDataset(SyntheticSpec())
        kwargs = {"backbone": factory.pretrained_backbone()} if kind == "efficientnet_b0_sim" else {}
        model = build_model(kind, np.random.default_rng(0), **kwargs)
        batch = factory.sample(4, np.random.default_rng(1))
        assert batch.x.shape == (4, FLAT_DIM)

        model.zero_grads()
        model.backward(cross_entropy_grad(model.forward(batch.x, training=True), batch.y))
        analytic = {k: v.copy() for k, v in model.gradients().items()}

        def loss():
            return cross_entropy(model.forward(batch.x, training=True), batch.y)

        picks = np.random.default_rng(2)
        for key, param in model.parameters().items():
            flat = param.ravel()
            for i in picks.choice(flat.size, size=min(flat.size, 6), replace=False):
                original = flat[i]
                flat[i] = original + EPS
                plus = loss()
                flat[i] = original - EPS
                minus = loss()
                flat[i] = original
                numeric = (plus - minus) / (2 * EPS)
                assert analytic[key].ravel()[i] == pytest.approx(numeric, abs=TOL), (key, i)
