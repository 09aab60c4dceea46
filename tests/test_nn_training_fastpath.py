"""Training does only the work whose result is used — and nothing else moves.

``LocalTrainer.train`` gathers the memoised features of a model's frozen
prefix instead of pushing pixels through it, ``Sequential.backward`` stops at
the lowest layer that trains, and a layer's ``backward`` writes each gradient
once.  Every test here trains the same model twice from one seed: through
``LocalTrainer`` and through the reference loop below — zeroed gradients that
this step's are added to, the full backward pass, every step on pixels — and
requires the weights and the trainer's rng state to come out bit-identical.

The features of a selection of rows are used only where the per-row-count
probe (``FrozenInputs.rows``) found them bit-identical to the prefix run on
those rows; which counts pass depends on the BLAS and its thread count (CI
runs this file with one thread too), so no test asserts a verdict — only
that both verdicts train the same model.
"""

import numpy as np
import pytest

from repro.data.dataset import FEATURE_CHUNK, Dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.errors import ConfigError, NotBuiltError
from repro.fl.evaluation import evaluate_on, evaluate_weights
from repro.fl.trainer import LocalTrainer, TrainConfig
from repro.nn import model as model_module
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import cross_entropy_grad
from repro.nn.model import Sequential
from repro.nn.models import build_efficientnet_b0_sim, build_simple_nn

BATCH = 16
FACTORY = SyntheticImageDataset(SyntheticSpec(seed=5))
BACKBONE = FACTORY.pretrained_backbone()


def _relu_first(rng):
    """A parameterless layer below the lowest trainable one that vouches for
    nothing: neither frozen (its outputs are never cached) nor trained."""
    layers = [ReLU(), Dense(12, name="hidden"), ReLU(), Dense(10, name="head")]
    return Sequential(layers, name="relu_first").build(rng, (3072,))


BUILDERS = {
    "simple_nn": build_simple_nn,
    "efficientnet_pretrained": lambda rng: build_efficientnet_b0_sim(rng, backbone=BACKBONE),
    "relu_first": _relu_first,
}


def _dataset(size: int) -> Dataset:
    return FACTORY.sample(size, np.random.default_rng(size))


def _reference_train(model, dataset, config, rng):
    """The training loop before any work was skipped."""
    for _epoch in range(config.epochs):
        indices = np.arange(len(dataset))
        rng.shuffle(indices)
        for begin in range(0, len(indices), config.batch_size):
            batch = indices[begin : begin + config.batch_size]
            model.zero_grads()
            zeros = model.gradients()
            logits = model.forward(dataset.x[batch], training=True)
            model.backward(cross_entropy_grad(logits, dataset.y[batch]))
            grads = {key: zeros[key] + grad for key, grad in model.gradients().items()}
            for key, value in model.parameters().items():
                value -= config.learning_rate * grads[key]


def _assert_same_training(kind, dataset, epochs=2):
    config = TrainConfig(epochs=epochs, batch_size=BATCH, learning_rate=0.05)
    reference = BUILDERS[kind](np.random.default_rng(3))
    reference_rng = np.random.default_rng(9)
    _reference_train(reference, dataset, config, reference_rng)

    model = BUILDERS[kind](np.random.default_rng(3))
    trainer = LocalTrainer(config, rng=np.random.default_rng(9))
    trainer.train(model, dataset)

    weights, wanted = model.get_weights(), reference.get_weights()
    assert weights.keys() == wanted.keys()
    for key, value in weights.items():
        assert value.tobytes() == wanted[key].tobytes(), key
    assert trainer.rng.bit_generator.state == reference_rng.bit_generator.state
    return model


class TestBitIdenticalToReferenceLoop:
    # Plain gradient descent is the only update rule; the parameter names it
    # in each case's id.
    @pytest.mark.parametrize("optimizer", ["sgd"])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_every_model_and_optimizer(self, kind, optimizer):
        _assert_same_training(kind, _dataset(43))

    @pytest.mark.parametrize("size", [2 * BATCH + 1, 2 * BATCH + 10, 2 * BATCH + 11, 3 * BATCH])
    @pytest.mark.parametrize("kind", ["simple_nn", "efficientnet_pretrained"])
    def test_remainder_batches(self, kind, size):
        """Last batches of 1, 10, 11 and ``batch_size`` rows: the small ones
        are where a BLAS leaves its usual summation order."""
        _assert_same_training(kind, _dataset(size))

    def test_features_spanning_chunks(self):
        """A set larger than one feature chunk: batches gather rows from
        several chunks of the whole-set pass."""
        dataset = _dataset(FEATURE_CHUNK + 40)
        config = TrainConfig(epochs=1, batch_size=64, learning_rate=0.05)
        model = BUILDERS["efficientnet_pretrained"](np.random.default_rng(3))
        reference = BUILDERS["efficientnet_pretrained"](np.random.default_rng(3))
        LocalTrainer(config, rng=np.random.default_rng(9)).train(model, dataset)
        _reference_train(reference, dataset, config, np.random.default_rng(9))
        wanted = reference.get_weights()
        for key, value in model.get_weights().items():
            assert value.tobytes() == wanted[key].tobytes(), key
        assert evaluate_on(model, dataset, batch_size=100) == reference.evaluate_accuracy(
            dataset.x, dataset.y, batch_size=100
        )

    def test_failed_probe_keeps_the_pixel_path(self, monkeypatch):
        """A row count whose features are not exact is served pixels: the
        trunk runs on every batch and the model comes out the same."""

        class NeverExact(dict):
            def get(self, key, default=None):
                return False

        monkeypatch.setattr(model_module, "_FEATURE_ROWS_EXACT", NeverExact())
        dataset = _dataset(43)
        calls = []
        real = model_module.FrozenInputs._extract
        monkeypatch.setattr(
            model_module.FrozenInputs,
            "_extract",
            lambda self, x: calls.append(len(x)) or real(self, x),
        )
        model = _assert_same_training("efficientnet_pretrained", dataset)
        assert calls == [43]  # the whole-set pass; no probe ever ran
        inputs = model.inputs(dataset)
        assert inputs.rows(np.arange(BATCH))[1] == 0
        assert inputs.chunked(512) == (dataset.x, 0)


class _Spy:
    """Counts a layer's ``forward`` / ``backward`` calls, keeping results."""

    def __init__(self, layer):
        self.forwards = 0
        self.backwards = []
        forward, backward = layer.forward, layer.backward

        def spy_forward(x, training=True):
            self.forwards += 1
            return forward(x, training=training)

        def spy_backward(grad_out, **kwargs):
            self.backwards.append((kwargs, backward(grad_out, **kwargs)))
            return self.backwards[-1][1]

        layer.forward, layer.backward = spy_forward, spy_backward


class TestOnlyWhatTrainsRuns:
    def test_frozen_trunk_is_never_visited_once_features_exist(self):
        dataset = _dataset(3 * BATCH)
        model = BUILDERS["efficientnet_pretrained"](np.random.default_rng(3))
        assert (model.frozen_depth(), model.lowest_trainable()) == (1, 1)
        inputs = model.inputs(dataset)
        x, start = inputs.rows(np.arange(BATCH))
        if start == 0:
            pytest.skip("this BLAS does not reproduce 16-row features; nothing to skip")
        trunk, head = _Spy(model.layers[0]), _Spy(model.layers[1])
        for begin in range(0, len(dataset), BATCH):
            batch = np.arange(begin, begin + BATCH)
            x, start = inputs.rows(batch)
            assert start == 1 and x.shape == (BATCH, 20)
            model.train_step(x, dataset.y[batch], 0.05, start=start)
        assert (trunk.forwards, trunk.backwards) == (0, [])
        assert head.forwards == 3
        assert [(kwargs, grad) for kwargs, grad in head.backwards] == [({"input_grad": False}, None)] * 3

    @pytest.mark.parametrize("kind", ["simple_nn", "relu_first"])
    def test_backprop_stops_at_the_lowest_trainable_layer(self, kind):
        dataset = _dataset(BATCH)
        model = BUILDERS[kind](np.random.default_rng(3))
        lowest = model.lowest_trainable()
        assert lowest == {"relu_first": 1}.get(kind, 0)
        assert model.frozen_depth() == 0  # nothing below `lowest` vouches for its content
        spies = [_Spy(layer) for layer in model.layers]
        model.train_step(dataset.x, dataset.y, 0.05)
        assert all(spy.forwards == 1 for spy in spies)
        assert all(spy.backwards == [] for spy in spies[:lowest])
        assert [(kwargs, grad) for kwargs, grad in spies[lowest].backwards] == [({"input_grad": False}, None)]
        assert all(
            len(spy.backwards) == 1 and spy.backwards[0][0] == {} and spy.backwards[0][1] is not None
            for spy in spies[lowest + 1 :]
        )

    def test_full_backward_still_returns_the_input_gradient(self):
        model = build_simple_nn(np.random.default_rng(0), input_dim=8)
        x = np.random.default_rng(1).normal(size=(4, 8))
        logits = model.forward(x)
        assert model.backward(np.ones_like(logits)).shape == x.shape
        model.forward(x)
        assert model.backward(np.ones_like(logits), lowest=0) is None

    def test_backward_writes_gradients_instead_of_accumulating(self):
        model = build_simple_nn(np.random.default_rng(0), input_dim=8)
        x = np.random.default_rng(1).normal(size=(4, 8))
        grad = np.ones((4, 10))
        model.forward(x)
        model.backward(grad)
        once = {key: value.copy() for key, value in model.gradients().items()}
        model.forward(x)
        model.backward(grad)
        for key, value in model.gradients().items():
            assert value.tobytes() == once[key].tobytes()

    def test_batch_may_not_enter_above_a_layer_that_trains(self):
        model = build_simple_nn(np.random.default_rng(0), input_dim=8)
        with pytest.raises(ConfigError, match="enters at layer 2"):
            model.train_step(np.zeros((4, 20)), np.zeros(4, dtype=int), 0.05, start=2)


def _pretrained(backbone=BACKBONE, seed=3):
    return build_efficientnet_b0_sim(np.random.default_rng(seed), backbone=backbone)


class TestTrainingScratchIsReleased:
    """A model holds gradients, cached batch inputs and ReLU masks only while
    ``LocalTrainer.train`` runs, and releasing them changes nothing."""

    @staticmethod
    def _train_twice(kind):
        model = BUILDERS[kind](np.random.default_rng(3))
        config = TrainConfig(epochs=1, batch_size=BATCH, learning_rate=0.05)
        trainer = LocalTrainer(config, rng=np.random.default_rng(9))
        for _round in range(2):
            trainer.train(model, _dataset(43))
        return model

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_a_built_model_holds_no_gradients(self, kind):
        assert BUILDERS[kind](np.random.default_rng(3)).gradients() == {}

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_train_releases_the_scratch(self, kind):
        model = self._train_twice(kind)
        assert model.gradients() == {}
        for layer in model.layers:
            if isinstance(layer, Dense):
                with pytest.raises(NotBuiltError, match="backward before forward"):
                    layer.backward(np.ones((1, layer.units)))
            if isinstance(layer, ReLU):
                assert layer._mask is None

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_a_second_train_equals_training_without_the_release(self, kind, monkeypatch):
        released = self._train_twice(kind)
        monkeypatch.setattr(Sequential, "release_scratch", lambda self: None)
        kept = self._train_twice(kind)
        assert kept.gradients()  # the scratch really was kept this time
        wanted = kept.get_weights()
        for key, value in released.get_weights().items():
            assert value.tobytes() == wanted[key].tobytes(), key


class TestFeatureCacheContract:
    def test_keyed_by_the_trunks_content_not_its_identity(self):
        dataset = _dataset(40)
        first, twin = _pretrained(), _pretrained(seed=4)
        assert first.layers[0] is not twin.layers[0]
        assert first.layers[0].frozen_token() == twin.layers[0].frozen_token()
        features = first.inputs(dataset).features
        assert twin.inputs(dataset).features is features
        assert (dataset.feature_misses, dataset.feature_hits) == (1, 1)
        assert not features.flags.writeable
        np.testing.assert_array_equal(features, first.layers[0].forward(dataset.x, training=False))

    def test_different_trunks_never_share_rows(self):
        dataset = _dataset(40)
        projection, anchors = BACKBONE
        others = [
            _pretrained((projection, anchors + 0.01)),
            _pretrained((projection * 1.01, anchors)),
            build_efficientnet_b0_sim(np.random.default_rng(3), backbone=BACKBONE, sigma=0.7),
        ]
        base = _pretrained().inputs(dataset).features
        for other in others:
            features = other.inputs(dataset).features
            assert features is not base and not np.array_equal(features, base)
            np.testing.assert_array_equal(features, other.layers[0].forward(dataset.x, training=False))
        assert (dataset.feature_misses, dataset.feature_hits) == (4, 0)

    def test_copies_recompute(self):
        dataset = _dataset(40)
        model = _pretrained()
        features = model.inputs(dataset).features
        x, y = dataset.x, dataset.y
        copies = (
            Dataset(x[5:25].copy(), y[5:25].copy()),
            Dataset(x[:20].copy(), y[:20].copy()),
            Dataset(x.reshape(len(x), -1), y),
        )
        for copy in copies:
            assert (copy.feature_misses, copy.feature_hits) == (0, 0)
            again = model.inputs(copy).features
            assert again is not features and copy.feature_misses == 1
        assert dataset.feature_misses == 1

    def test_models_without_a_frozen_prefix_never_touch_the_cache(self):
        dataset = _dataset(40)
        for kind in ("simple_nn", "relu_first"):
            model = BUILDERS[kind](np.random.default_rng(3))
            inputs = model.inputs(dataset)
            assert inputs.features is None and inputs.chunked(512) == (dataset.x, 0)
            LocalTrainer(TrainConfig(epochs=1, batch_size=BATCH)).train(model, dataset)
            evaluate_on(model, dataset)
        assert (dataset.feature_misses, dataset.feature_hits) == (0, 0)

    @pytest.mark.parametrize("batch_size", [512, 40, 16, 7, 1])
    def test_evaluation_through_features_equals_evaluation_on_pixels(self, batch_size):
        dataset = _dataset(40)
        model = _pretrained()
        LocalTrainer(TrainConfig(epochs=1, batch_size=BATCH)).train(model, dataset)
        logits = model.predict(dataset.x)
        x, start = model.inputs(dataset).chunked(batch_size)
        if start:
            chunks = [model.predict(x[b : b + batch_size], start=start) for b in range(0, 40, batch_size)]
            pixels = [model.predict(dataset.x[b : b + batch_size]) for b in range(0, 40, batch_size)]
            assert np.concatenate(chunks).tobytes() == np.concatenate(pixels).tobytes()
        expected = float((logits.argmax(axis=1) == dataset.y).mean())
        assert evaluate_on(model, dataset, batch_size=batch_size) == expected
        foreign = _pretrained(seed=8).get_weights()
        before = model.get_weights()
        scratch = _pretrained(seed=8)
        assert evaluate_weights(model, foreign, dataset, batch_size=batch_size) == (
            scratch.evaluate_accuracy(dataset.x, dataset.y, batch_size=batch_size)
        )
        assert all(np.array_equal(before[key], value) for key, value in model.get_weights().items())

    def test_empty_dataset(self):
        empty = Dataset(np.zeros((0, 3072)), np.zeros(0, dtype=np.int64))
        model = _pretrained()
        assert model.inputs(empty).features.shape == (0, 20)
        assert evaluate_on(model, empty) == 0.0
