"""Tests for the Sequential container, SGD, losses, serialization."""

import numpy as np
import pytest

from repro.errors import NotBuiltError, SerializationError, ShapeError
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD
from repro.nn.serialize import (
    weights_from_bytes,
    weights_hash,
    weights_to_bytes,
    weights_size_bytes,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def small_model(rng):
    return Sequential([Dense(6, name="h"), ReLU(), Dense(3, name="out")]).build(rng, (4,))


class TestSequential:
    def test_build_tracks_shapes(self, rng):
        model = small_model(rng)
        assert model.input_shape == (4,)
        assert model.output_shape == (3,)

    def test_use_before_build_raises(self, rng):
        model = Sequential([Dense(3)])
        with pytest.raises(NotBuiltError):
            model.forward(rng.normal(size=(2, 4)))

    def test_duplicate_layer_names_deduplicated(self, rng):
        model = Sequential([Dense(3, name="d"), ReLU(), Dense(3, name="d")]).build(rng, (4,))
        keys = model.parameters().keys()
        assert "d/W" in keys and "d_2/W" in keys

    def test_deduplicated_names_skip_names_already_taken(self, rng):
        """A renamed layer must not land on a later layer's own name: every
        layer's parameters are shipped and installed."""
        model = Sequential(
            [Dense(4, name="d"), Dense(4, name="d"), Dense(3, name="d_2")]
        ).build(rng, (5,))
        names = [layer.name for layer in model.layers]
        assert len(set(names)) == len(names) == 3
        weights = model.get_weights()
        assert len(weights) == 6
        assert model.parameter_count() == sum(value.size for value in weights.values()) == 59
        zeros = {key: np.zeros_like(value) for key, value in weights.items()}
        model.set_weights(zeros)
        assert all(not layer.params["W"].any() for layer in model.layers)

    def test_parameter_count(self, rng):
        model = small_model(rng)
        assert model.parameter_count() == (4 * 6 + 6) + (6 * 3 + 3)

    def test_predict_matches_forward_inference(self, rng):
        model = small_model(rng)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(model.predict(x), model.forward(x, training=False))


class TestWeightsRoundTrip:
    def test_get_set_round_trip(self, rng):
        model = small_model(rng)
        weights = model.get_weights()
        other = small_model(np.random.default_rng(99))
        other.set_weights(weights)
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(model.predict(x), other.predict(x))

    def test_get_weights_is_copy(self, rng):
        model = small_model(rng)
        weights = model.get_weights()
        weights["h/W"][...] = 0.0
        assert not np.allclose(model.parameters()["h/W"], 0.0)

    def test_set_weights_key_mismatch(self, rng):
        model = small_model(rng)
        with pytest.raises(ShapeError):
            model.set_weights({"bogus": np.zeros(3)})

    def test_set_weights_shape_mismatch(self, rng):
        model = small_model(rng)
        weights = model.get_weights()
        weights["h/W"] = np.zeros((2, 2))
        with pytest.raises(ShapeError):
            model.set_weights(weights)


class TestTraining:
    def test_train_step_reduces_loss(self, rng):
        model = small_model(rng)
        loss_fn = CrossEntropyLoss()
        optimizer = SGD(0.5)
        x = rng.normal(size=(32, 4))
        y = (x[:, 0] > 0).astype(np.int64)  # learnable binary-ish task
        first = model.train_step(x, y, loss_fn, optimizer)
        for _ in range(50):
            last = model.train_step(x, y, loss_fn, optimizer)
        assert last < first

    def test_evaluate_accuracy_batched(self, rng):
        model = small_model(rng)
        x = rng.normal(size=(100, 4))
        y = rng.integers(0, 3, size=100)
        full = model.evaluate_accuracy(x, y, batch_size=1000)
        batched = model.evaluate_accuracy(x, y, batch_size=7)
        assert full == batched

    def test_empty_dataset_accuracy_zero(self, rng):
        model = small_model(rng)
        assert model.evaluate_accuracy(np.zeros((0, 4)), np.zeros(0, dtype=int)) == 0.0


class TestOptimizers:
    def _quadratic_steps(self, optimizer, steps=60):
        # Minimize f(w) = ||w||^2 by following its gradient.
        params = {"w": np.array([5.0, -3.0])}
        for _ in range(steps):
            grads = {"w": 2 * params["w"]}
            optimizer.step(params, grads)
        return params["w"]

    def test_sgd_converges(self):
        w = self._quadratic_steps(SGD(0.1))
        np.testing.assert_allclose(w, 0.0, atol=1e-4)

    def test_step_is_exact_gradient_descent(self):
        params = {"a": np.array([1.0, -2.0]), "b": np.array([[0.5]])}
        grads = {"a": np.array([0.3, 0.7]), "b": np.array([[-1.25]])}
        expected = {key: params[key] - 0.05 * grads[key] for key in params}
        SGD(0.05).step(params, grads)
        for key in params:
            np.testing.assert_array_equal(params[key], expected[key])

    def test_updates_parameters_in_place_and_leaves_grads(self):
        # Models hand out live parameter references; the step must write into them.
        param, grad = np.array([1.0, 2.0]), np.array([1.0, 1.0])
        params, grads = {"w": param}, {"w": grad}
        SGD(0.5).step(params, grads)
        assert params["w"] is param
        np.testing.assert_array_equal(grad, [1.0, 1.0])

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            SGD(0.0)

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="-1.0"):
            SGD(-1.0)

    def test_steps_counted(self):
        optimizer = SGD(0.1)
        params = {"w": np.zeros(2)}
        optimizer.step(params, {"w": np.zeros(2)})
        optimizer.step(params, {"w": np.zeros(2)})
        assert optimizer.steps == 2


class TestLosses:
    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        labels = np.array([0, 1])
        assert CrossEntropyLoss().loss(logits, labels) < 1e-6

    def test_cross_entropy_uniform_is_log_k(self):
        logits = np.zeros((4, 10))
        labels = np.arange(4)
        assert CrossEntropyLoss().loss(logits, labels) == pytest.approx(np.log(10))

    def test_shape_validation(self):
        loss_fn = CrossEntropyLoss()
        for check in (loss_fn.loss, loss_fn.gradient, loss_fn.loss_and_grad):
            with pytest.raises(ShapeError):
                check(np.zeros((3,)), np.zeros(3, dtype=int))
            with pytest.raises(ShapeError):
                check(np.zeros((3, 2)), np.zeros(4, dtype=int))
            with pytest.raises(ShapeError):
                check(np.zeros((3, 2)), np.zeros((3, 1), dtype=int))

    def test_cross_entropy_is_exact_for_a_vanishing_label_probability(self):
        """A label whose probability underflows costs its full logit gap,
        not a floor's ``-log(1e-12)``: the loss is a log-softmax."""
        logits = np.array([[0.0, 100.0], [0.0, 0.0]])
        labels = np.array([0, 0])
        assert CrossEntropyLoss().loss(logits, labels) == pytest.approx((100.0 + np.log(2)) / 2)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_loss_is_the_mean_negative_log_softmax(self, scale):
        """Against ``np.logaddexp.reduce``, a normaliser computed another way."""
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(16, 10)) * scale
        labels = rng.integers(0, 10, size=16)
        log_norm = np.logaddexp.reduce(logits, axis=1)
        want = float((log_norm - logits[np.arange(16), labels]).mean())
        assert CrossEntropyLoss().loss(logits, labels) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_a_per_row_shift_changes_nothing(self):
        rng = np.random.default_rng(4)
        logits, labels = rng.normal(size=(8, 5)), rng.integers(0, 5, size=8)
        shifted = logits + rng.normal(size=(8, 1)) * 50.0
        loss_fn = CrossEntropyLoss()
        loss, grad = loss_fn.loss_and_grad(logits, labels)
        shifted_loss, shifted_grad = loss_fn.loss_and_grad(shifted, labels)
        assert shifted_loss == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(shifted_grad, grad, rtol=1e-9, atol=1e-15)

    def test_loss_is_non_negative_and_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        logits, labels = rng.normal(size=(12, 7)) * 30.0, rng.integers(0, 7, size=12)
        loss, grad = CrossEntropyLoss().loss_and_grad(logits, labels)
        assert loss >= 0.0
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)
        # Only the label column pulls its logit up.
        assert (grad[np.arange(12), labels] <= 0).all()

    def test_loss_and_grad_are_loss_and_gradient(self):
        rng = np.random.default_rng(0)
        logits, labels = rng.normal(size=(6, 4)), rng.integers(0, 4, size=6)
        loss_fn = CrossEntropyLoss()
        loss, grad = loss_fn.loss_and_grad(logits, labels)
        assert loss == loss_fn.loss(logits, labels)
        np.testing.assert_array_equal(grad, loss_fn.gradient(logits, labels))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_loss_and_grad_are_bit_identical_to_the_one_hot_formula(self, scale):
        """Indexing the label column gives the bytes of the one-hot
        product, including tied logits (rounded rows) and rows whose
        softmax saturates to 0 and 1."""

        def one_hot(logits, labels):
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            probs = exp / exp.sum(axis=1, keepdims=True)
            targets = np.eye(logits.shape[1])[labels]
            log_norm = np.log(exp.sum(axis=1))
            loss = float((log_norm - (targets * shifted).sum(axis=1)).mean())
            return loss, (probs - targets) / logits.shape[0]

        rng = np.random.default_rng(7)
        loss_fn = CrossEntropyLoss()
        for case in range(200):
            rows, classes = int(rng.integers(1, 33)), int(rng.integers(2, 11))
            logits = rng.normal(size=(rows, classes)) * scale
            if case % 4 == 0:
                logits = np.round(logits)
            labels = rng.integers(0, classes, size=rows)
            want_loss, want_grad = one_hot(logits, labels)
            loss, grad = loss_fn.loss_and_grad(logits, labels)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want_grad.tobytes()

    def test_a_label_past_the_class_count_raises(self):
        with pytest.raises(IndexError):
            CrossEntropyLoss().loss_and_grad(np.zeros((2, 3)), np.array([0, 3]))


class TestSerialization:
    def test_round_trip(self, rng):
        model = small_model(rng)
        weights = model.get_weights()
        restored = weights_from_bytes(weights_to_bytes(weights))
        assert set(restored) == set(weights)
        for key in weights:
            np.testing.assert_array_equal(restored[key], weights[key])

    def test_hash_stable(self, rng):
        weights = small_model(rng).get_weights()
        assert weights_hash(weights) == weights_hash(weights)

    def test_hash_detects_change(self, rng):
        weights = small_model(rng).get_weights()
        before = weights_hash(weights)
        weights["h/W"][0, 0] += 1e-9
        assert weights_hash(weights) != before

    def test_non_ndarray_rejected(self):
        with pytest.raises(SerializationError):
            weights_to_bytes({"w": [1, 2, 3]})

    def test_bad_payload_rejected(self):
        with pytest.raises(SerializationError):
            weights_from_bytes(b"garbage")

    def test_version_checked(self, rng):
        from repro.utils.serialization import canonical_dumps

        payload = canonical_dumps({"version": 999, "weights": {}})
        with pytest.raises(SerializationError):
            weights_from_bytes(payload)

    def test_size_reported(self, rng):
        weights = small_model(rng).get_weights()
        assert weights_size_bytes(weights) == len(weights_to_bytes(weights))
