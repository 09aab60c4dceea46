"""Tests for local training, clients, async policies, and poisoning."""

from dataclasses import fields

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.async_policy import Deadline, WaitForAll, WaitForK
from repro.fl.client import ClientConfig, FLClient
from repro.fl.evaluation import evaluate_on, evaluate_weights
from repro.fl.poisoning import LabelFlipAttacker, NoiseAttacker, ScaleAttacker
from repro.fl.trainer import LocalTrainer, TrainConfig
from repro.fl.aggregation import ModelUpdate
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD
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


class TestLocalTrainer:
    def test_training_improves_accuracy(self):
        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng)
        model = builder(np.random.default_rng(1))
        before = model.evaluate_accuracy(dataset.x, dataset.y)
        trainer = LocalTrainer(TrainConfig(epochs=10, learning_rate=0.1), rng=rng)
        result = trainer.train(model, dataset)
        after = model.evaluate_accuracy(dataset.x, dataset.y)
        assert after > max(before, 0.8)
        assert result.epochs_run == 10
        assert result.batches_run == 10 * 7  # ceil(200/32) = 7 batches/epoch
        assert len(result.loss_history) == 10

    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        trainer = LocalTrainer(TrainConfig(epochs=8, learning_rate=0.1), rng=rng)
        model = builder(np.random.default_rng(1))
        result = trainer.train(model, easy_dataset(rng))
        assert result.loss_history[-1] < result.loss_history[0]

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

    def test_one_full_batch_epoch_is_one_sgd_step(self):
        dataset = easy_dataset(np.random.default_rng(0), n=40)
        model = builder(np.random.default_rng(1))
        trainer = LocalTrainer(
            TrainConfig(epochs=1, batch_size=40, learning_rate=0.07), rng=np.random.default_rng(5)
        )
        result = trainer.train(model, dataset)

        reference = builder(np.random.default_rng(1))
        order = np.arange(40)
        np.random.default_rng(5).shuffle(order)
        loss = reference.train_step(
            dataset.x[order], dataset.y[order], CrossEntropyLoss(), SGD(0.07)
        )
        assert result.final_loss == loss
        expected = reference.get_weights()
        for key, value in model.get_weights().items():
            np.testing.assert_array_equal(value, expected[key])


class TestClientConfig:
    def test_fields_are_identity_recipe_and_attacker(self):
        assert [f.name for f in fields(ClientConfig)] == ["client_id", "train_config", "attacker"]


class TestFLClient:
    def _client(self, client_id="A"):
        rng = np.random.default_rng(0)
        return FLClient(
            ClientConfig(client_id=client_id, train_config=TrainConfig(epochs=2)),
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
        assert client.rounds_trained == 1

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
        with pytest.raises(ConfigError):
            ClientConfig(client_id="", train_config=TrainConfig())

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


class TestPoisoning:
    def test_label_flip_flips(self):
        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng)
        attacker = LabelFlipAttacker(flip_fraction=1.0, target_class=0)
        poisoned = attacker.poison_dataset(dataset, rng)
        assert (poisoned.y == 0).all()
        assert (dataset.y != 0).any()  # original untouched

    def test_label_flip_partial(self):
        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng, n=1000)
        attacker = LabelFlipAttacker(flip_fraction=0.3, target_class=0)
        poisoned = attacker.poison_dataset(dataset, rng)
        changed = (poisoned.y != dataset.y).mean()
        assert 0.05 < changed < 0.35

    def test_label_flip_validation(self):
        with pytest.raises(ConfigError):
            LabelFlipAttacker(flip_fraction=0.0)

    def test_noise_attacker_perturbs(self):
        rng = np.random.default_rng(0)
        update = ModelUpdate(client_id="M", weights={"w": np.zeros((3, 3))}, num_samples=10)
        noisy = NoiseAttacker(noise_std=1.0).poison_update(update, rng)
        assert not np.allclose(noisy.weights["w"], 0.0)
        assert np.allclose(update.weights["w"], 0.0)
        assert noisy.metadata["attack"] == "noise"

    def test_noise_validation(self):
        with pytest.raises(ConfigError):
            NoiseAttacker(noise_std=0.0)

    def test_scale_attacker(self):
        rng = np.random.default_rng(0)
        update = ModelUpdate(client_id="M", weights={"w": np.ones(4)}, num_samples=10)
        scaled = ScaleAttacker(scale=10.0).poison_update(update, rng)
        np.testing.assert_allclose(scaled.weights["w"], 10.0)

    def test_scale_validation(self):
        with pytest.raises(ConfigError):
            ScaleAttacker(scale=1.0)

    def test_base_attacker_passthrough(self):
        from repro.fl.poisoning import Attacker

        rng = np.random.default_rng(0)
        dataset = easy_dataset(rng)
        update = ModelUpdate(client_id="M", weights={"w": np.ones(2)}, num_samples=5)
        attacker = Attacker()
        assert attacker.poison_dataset(dataset, rng) is dataset
        assert attacker.poison_update(update, rng) is update
