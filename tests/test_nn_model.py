"""Tests for the Sequential container, its training step, the loss, serialization."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError, NotBuiltError, SerializationError, ShapeError
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import cross_entropy, cross_entropy_grad
from repro.nn.model import Sequential
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
        x = rng.normal(size=(32, 4))
        y = (x[:, 0] > 0).astype(np.int64)  # learnable binary-ish task
        first = cross_entropy(model.predict(x), y)
        for _ in range(50):
            assert model.train_step(x, y, 0.5) is None
        assert cross_entropy(model.predict(x), y) < first

    @staticmethod
    def _this_steps_gradients(model, x, y):
        """The gradients one step on ``(x, y)`` takes, from a twin of ``model``."""
        twin = small_model(np.random.default_rng(0))
        twin.set_weights(model.get_weights())
        twin.backward(cross_entropy_grad(twin.forward(x), y))
        return {key: value.copy() for key, value in twin.gradients().items()}

    def test_step_is_exact_gradient_descent(self, rng):
        """Each parameter becomes ``w - lr * g``, ``g`` being the gradient
        of this batch's cross entropy."""
        model = small_model(rng)
        x, y = rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)
        grads = self._this_steps_gradients(model, x, y)
        expected = {key: value - 0.05 * grads[key] for key, value in model.parameters().items()}
        model.train_step(x, y, 0.05)
        for key, value in model.parameters().items():
            assert value.tobytes() == expected[key].tobytes(), key

    def test_updates_parameters_in_place_and_leaves_grads(self, rng):
        # Models hand out live parameter references; the step must write into them.
        model = small_model(rng)
        params = model.parameters()
        x, y = rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)
        grads = self._this_steps_gradients(model, x, y)
        model.train_step(x, y, 0.5)
        for key, value in model.parameters().items():
            assert value is params[key]
        assert model.gradients().keys() == grads.keys()
        for key, value in model.gradients().items():
            assert value.tobytes() == grads[key].tobytes(), key

    def test_a_failed_step_moves_no_parameter(self, rng):
        model = small_model(rng)
        before = model.get_weights()
        with pytest.raises(ShapeError):
            model.train_step(rng.normal(size=(8, 4)), np.zeros(7, dtype=np.int64), 0.5)
        for key, value in model.parameters().items():
            assert value.tobytes() == before[key].tobytes(), key

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
    """The update rule of :meth:`Sequential.train_step` refuses a learning
    rate that is not positive and finite, before any parameter moves."""

    def _refused(self, rng, learning_rate):
        model = small_model(rng)
        before = model.get_weights()
        x, y = rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)
        with pytest.raises(ConfigError, match="learning_rate") as caught:
            model.train_step(x, y, learning_rate)
        for key, value in model.parameters().items():
            assert value.tobytes() == before[key].tobytes(), key
        return str(caught.value)

    def test_invalid_learning_rate(self, rng):
        for learning_rate in (0.0, math.inf, math.nan):
            self._refused(rng, learning_rate)

    def test_negative_learning_rate_rejected(self, rng):
        assert "-1.0" in self._refused(rng, -1.0)


class TestLosses:
    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        labels = np.array([0, 1])
        assert cross_entropy(logits, labels) < 1e-6

    def test_cross_entropy_uniform_is_log_k(self):
        logits = np.zeros((4, 10))
        labels = np.arange(4)
        assert cross_entropy(logits, labels) == pytest.approx(np.log(10))

    def test_shape_validation(self):
        for check in (cross_entropy, cross_entropy_grad):
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
        assert cross_entropy(logits, labels) == pytest.approx((100.0 + np.log(2)) / 2)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_loss_is_the_mean_negative_log_softmax(self, scale):
        """Against ``np.logaddexp.reduce``, a normaliser computed another way."""
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(16, 10)) * scale
        labels = rng.integers(0, 10, size=16)
        log_norm = np.logaddexp.reduce(logits, axis=1)
        want = float((log_norm - logits[np.arange(16), labels]).mean())
        assert cross_entropy(logits, labels) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_a_per_row_shift_changes_nothing(self):
        rng = np.random.default_rng(4)
        logits, labels = rng.normal(size=(8, 5)), rng.integers(0, 5, size=8)
        shifted = logits + rng.normal(size=(8, 1)) * 50.0
        assert cross_entropy(shifted, labels) == pytest.approx(cross_entropy(logits, labels), rel=1e-12)
        np.testing.assert_allclose(
            cross_entropy_grad(shifted, labels), cross_entropy_grad(logits, labels),
            rtol=1e-9, atol=1e-15,
        )

    def test_loss_is_non_negative_and_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        logits, labels = rng.normal(size=(12, 7)) * 30.0, rng.integers(0, 7, size=12)
        loss, grad = cross_entropy(logits, labels), cross_entropy_grad(logits, labels)
        assert loss >= 0.0
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)
        # Only the label column pulls its logit up.
        assert (grad[np.arange(12), labels] <= 0).all()

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
        for case in range(200):
            rows, classes = int(rng.integers(1, 33)), int(rng.integers(2, 11))
            logits = rng.normal(size=(rows, classes)) * scale
            if case % 4 == 0:
                logits = np.round(logits)
            labels = rng.integers(0, classes, size=rows)
            want_loss, want_grad = one_hot(logits, labels)
            loss, grad = cross_entropy(logits, labels), cross_entropy_grad(logits, labels)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want_grad.tobytes()

    def test_a_label_past_the_class_count_raises(self):
        for check in (cross_entropy, cross_entropy_grad):
            with pytest.raises(IndexError):
                check(np.zeros((2, 3)), np.array([0, 3]))

    def test_gradient_leaves_the_logits_unwritten(self):
        rng = np.random.default_rng(8)
        logits, labels = rng.normal(size=(5, 4)), rng.integers(0, 4, size=5)
        before = logits.copy()
        cross_entropy_grad(logits, labels)
        cross_entropy(logits, labels)
        assert logits.tobytes() == before.tobytes()


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
