"""Tests for local training, clients, async policies, and poisoning."""

import sys

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.async_policy import Deadline, WaitForAll, WaitForK
from repro.fl.client import FLClient
from repro.fl.evaluation import evaluate_on, evaluate_weights
from repro.fl import poisoning
from repro.fl.poisoning import LabelFlipAttacker
from repro.fl.trainer import LocalTrainer, TrainConfig
from repro.nn.layers import Dense, ReLU
from repro.nn import losses
from repro.nn.losses import cross_entropy
from repro.nn.model import Sequential
from repro.scenarios.spec import ScenarioSpec


def easy_dataset(rng, n=200):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y)


def builder(rng):
    return Sequential([Dense(8, name="h"), ReLU(), Dense(2, name="out")]).build(rng, (4,))


class TestTrainConfig:
    def test_defaults_match_paper(self):
        config = TrainConfig()
        assert config.epochs == 5  # the paper's five local epochs

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="-1.0"):
            TrainConfig(learning_rate=-1.0)


class TestLocalTrainer:
    def test_training_improves_accuracy(self):
        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng)
        model = builder(np.random.default_rng(1))
        before = model.evaluate_accuracy(dataset.x, dataset.y)
        trainer = LocalTrainer(TrainConfig(epochs=10, learning_rate=0.1), rng=rng)
        assert trainer.train(model, dataset) is None
        after = model.evaluate_accuracy(dataset.x, dataset.y)
        assert after > max(before, 0.8)

    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        trainer = LocalTrainer(TrainConfig(epochs=8, learning_rate=0.1), rng=rng)
        model = builder(np.random.default_rng(1))
        dataset = easy_dataset(rng)
        before = cross_entropy(model.predict(dataset.x), dataset.y)
        trainer.train(model, dataset)
        assert cross_entropy(model.predict(dataset.x), dataset.y) < before

    def test_training_never_evaluates_the_loss(self, monkeypatch):
        """A round reads only the trained weights, so no step computes the
        loss value: ``cross_entropy`` raises wherever it is bound."""

        def refuse(logits, labels):
            raise AssertionError("local training evaluated the loss")

        real = losses.cross_entropy
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "cross_entropy", None) is real:
                monkeypatch.setattr(module, "cross_entropy", refuse)
        dataset = easy_dataset(np.random.default_rng(0))
        model = builder(np.random.default_rng(1))
        before = model.get_weights()
        LocalTrainer(TrainConfig(epochs=2), rng=np.random.default_rng(2)).train(model, dataset)
        after = model.get_weights()
        assert any(not np.array_equal(before[key], after[key]) for key in before)

    def test_deterministic_given_seeds(self):
        dataset = easy_dataset(np.random.default_rng(0))

        def run():
            model = builder(np.random.default_rng(1))
            trainer = LocalTrainer(TrainConfig(epochs=2), rng=np.random.default_rng(2))
            trainer.train(model, dataset)
            return model.get_weights()

        a, b = run(), run()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_every_epoch_shuffles_from_the_rng(self):
        dataset = easy_dataset(np.random.default_rng(0), n=50)
        rng, reference = np.random.default_rng(4), np.random.default_rng(4)
        LocalTrainer(TrainConfig(epochs=3, batch_size=16), rng=rng).train(
            builder(np.random.default_rng(1)), dataset
        )
        for _ in range(3):
            reference.shuffle(np.arange(50))
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "size, batch_size, epochs", [(200, 32, 2), (40, 40, 1), (41, 40, 1), (5, 64, 3)]
    )
    def test_each_minibatch_is_one_step_at_the_configured_rate(
        self, size, batch_size, epochs, monkeypatch
    ):
        steps = []
        real = Sequential.train_step

        def spy(model, x, y, learning_rate, start=0):
            steps.append((len(x), learning_rate))
            return real(model, x, y, learning_rate, start=start)

        monkeypatch.setattr(Sequential, "train_step", spy)
        config = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.03)
        LocalTrainer(config, rng=np.random.default_rng(0)).train(
            builder(np.random.default_rng(1)), easy_dataset(np.random.default_rng(2), n=size)
        )
        full, rest = divmod(size, batch_size)
        assert steps == ([(batch_size, 0.03)] * full + [(rest, 0.03)] * bool(rest)) * epochs

    def test_one_full_batch_epoch_is_one_sgd_step(self):
        dataset = easy_dataset(np.random.default_rng(0), n=40)
        model = builder(np.random.default_rng(1))
        trainer = LocalTrainer(
            TrainConfig(epochs=1, batch_size=40, learning_rate=0.07), rng=np.random.default_rng(5)
        )
        trainer.train(model, dataset)

        reference = builder(np.random.default_rng(1))
        order = np.arange(40)
        np.random.default_rng(5).shuffle(order)
        reference.train_step(dataset.x[order], dataset.y[order], 0.07)
        expected = reference.get_weights()
        for key, value in model.get_weights().items():
            np.testing.assert_array_equal(value, expected[key])


class TestFLClient:
    def _client(self, client_id="A"):
        rng = np.random.default_rng(0)
        return FLClient(
            client_id,
            TrainConfig(epochs=2),
            easy_dataset(rng),
            easy_dataset(rng, n=80),
            builder,
            np.random.default_rng(3),
        )

    def test_train_local_produces_update(self):
        client = self._client()
        update = client.train_local(round_id=1)
        assert update.client_id == "A"
        assert update.num_samples == 200
        assert update.round_id == 1
        assert 0.0 <= update.reported_accuracy <= 1.0

    def test_train_local_is_one_local_training_call(self):
        """The client's rng builds its model and then shuffles its batches."""
        update = self._client().train_local(round_id=1)
        rng = np.random.default_rng(3)
        model = builder(rng)
        train_set = easy_dataset(np.random.default_rng(0))
        LocalTrainer(TrainConfig(epochs=2), rng=rng).train(model, train_set)
        for key, value in model.get_weights().items():
            assert update.weights[key].tobytes() == value.tobytes(), key

    def test_update_weights_detached(self):
        client = self._client()
        update = client.train_local(1)
        update.weights["h/W"][...] = 0.0
        assert not np.allclose(client.model.parameters()["h/W"], 0.0)

    def test_apply_global(self):
        client = self._client()
        update = client.train_local(1)
        other = self._client("B")
        other.apply_global(update.weights)
        x = np.random.default_rng(5).normal(size=(4, 4))
        np.testing.assert_array_equal(client.model.predict(x), other.model.predict(x))

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigError, match="client_id"):
            self._client("")

    def test_evaluate_weights_no_side_effect(self):
        client = self._client()
        foreign = builder(np.random.default_rng(77)).get_weights()
        before = client.model.get_weights()
        client.evaluate_weights(foreign)
        after = client.model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


class TestEvaluation:
    def test_evaluate_on(self):
        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng)
        model = builder(np.random.default_rng(1))
        acc = evaluate_on(model, dataset)
        assert 0.0 <= acc <= 1.0

    def test_evaluate_weights_restores(self):
        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng)
        model = builder(np.random.default_rng(1))
        saved = model.get_weights()
        evaluate_weights(model, builder(np.random.default_rng(2)).get_weights(), dataset)
        for key, value in model.get_weights().items():
            np.testing.assert_array_equal(value, saved[key])


class TestAsyncPolicies:
    def test_wait_for_all(self):
        policy = WaitForAll()
        assert not policy.ready(2, 3, elapsed=100.0)
        assert policy.ready(3, 3, elapsed=0.0)
        assert policy.describe() == "wait-for-all"

    def test_wait_for_k(self):
        policy = WaitForK(2)
        assert not policy.ready(1, 3, elapsed=100.0)
        assert policy.ready(2, 3, elapsed=0.0)
        assert policy.describe() == "wait-for-2"

    def test_wait_for_k_capped_by_cohort(self):
        policy = WaitForK(10)
        assert policy.ready(3, 3, elapsed=0.0)

    def test_wait_for_k_validation(self):
        with pytest.raises(ConfigError):
            WaitForK(0)

    def test_deadline(self):
        policy = Deadline(seconds=60.0)
        assert not policy.ready(1, 3, elapsed=30.0)
        assert policy.ready(1, 3, elapsed=60.0)
        assert policy.ready(3, 3, elapsed=0.0)  # full cohort short-circuits

    def test_deadline_min_models(self):
        policy = Deadline(seconds=10.0, min_models=2)
        assert not policy.ready(1, 3, elapsed=100.0)
        assert policy.ready(2, 3, elapsed=100.0)

    def test_deadline_validation(self):
        with pytest.raises(ConfigError):
            Deadline(seconds=0.0)
        with pytest.raises(ConfigError):
            Deadline(seconds=1.0, min_models=0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_deadline_must_be_finite(self, seconds):
        # NaN passes ``seconds <= 0`` and ``elapsed >= nan`` is never true:
        # such a deadline would silently mean wait-for-all.
        with pytest.raises(ConfigError, match="finite"):
            Deadline(seconds)
        with pytest.raises(ConfigError, match="finite"):
            ScenarioSpec(policy=Deadline(seconds))

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_wait_for_k_must_be_finite(self, k):
        # ``submitted >= min(nan, expected)`` never holds: a NaN k used to
        # validate and then time out waiting for the round's quorum, and an
        # infinite one ran wait-for-all labelled ``wait-for-inf``.
        with pytest.raises(ConfigError, match="finite"):
            WaitForK(k)

    @pytest.mark.parametrize("k", [True, 2.0, 2.5])
    def test_wait_for_k_is_a_whole_number_of_models(self, k):
        with pytest.raises(ConfigError, match="integer"):
            WaitForK(k)
        assert WaitForK(np.int64(2)).describe() == "wait-for-2"

    @pytest.mark.parametrize("min_models", [True, 1.0, 1.5])
    def test_deadline_min_models_is_a_whole_number_of_models(self, min_models):
        with pytest.raises(ConfigError, match="integer"):
            Deadline(seconds=1.0, min_models=min_models)


class TestPoisoning:
    def test_label_flip_flips(self):
        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng)
        poisoned = LabelFlipAttacker().poison_dataset(dataset, rng)
        assert (poisoned.y == 0).all()
        assert (dataset.y != 0).any()  # original untouched
        assert poisoned.x is dataset.x  # only the labels are rewritten

    def test_label_flip_partial(self, monkeypatch):
        monkeypatch.setattr(poisoning, "FLIP_FRACTION", 0.3)
        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng, n=1000)
        poisoned = LabelFlipAttacker().poison_dataset(dataset, rng)
        changed = (poisoned.y != dataset.y).mean()
        assert 0.05 < changed < 0.35

    def test_label_flip_draws_one_uniform_per_label(self):
        dataset = easy_dataset(np.random.default_rng(0), n=37)
        rng, reference = np.random.default_rng(6), np.random.default_rng(6)
        LabelFlipAttacker().poison_dataset(dataset, rng)
        reference.random(37)
        assert rng.bit_generator.state == reference.bit_generator.state
