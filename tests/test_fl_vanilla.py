"""Tests for the centralized (Vanilla) FL orchestrator."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.client import FLClient
from repro.fl.trainer import TrainConfig
from repro.fl.vanilla import VanillaConfig, VanillaFL
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential


def easy_dataset(rng, n=150):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y)


def builder(rng):
    return Sequential([Dense(8, name="h"), ReLU(), Dense(2, name="out")]).build(rng, (4,))


def shared_builder(rng):
    # All clients share the same initial weights, like the experiments do.
    return builder(np.random.default_rng(42))


@pytest.fixture
def clients():
    data_rng = np.random.default_rng(0)
    return [
        FLClient(
            cid,
            TrainConfig(epochs=2, learning_rate=0.1),
            easy_dataset(data_rng),
            easy_dataset(data_rng, n=60),
            shared_builder,
            np.random.default_rng(10 + i),
        )
        for i, cid in enumerate(["A", "B", "C"])
    ]


@pytest.fixture
def aggregator_test():
    return easy_dataset(np.random.default_rng(99), n=80)


class TestVanillaConfig:
    def test_rounds_validated(self):
        with pytest.raises(ConfigError):
            VanillaConfig(rounds=0)


class TestNotConsider:
    def test_runs_all_rounds(self, clients, aggregator_test):
        driver = VanillaFL(clients, aggregator_test, VanillaConfig(rounds=3), shared_builder)
        logs = driver.run()
        assert len(logs) == 3
        assert [log.round_id for log in logs] == [1, 2, 3]

    def test_uses_all_members(self, clients, aggregator_test):
        driver = VanillaFL(clients, aggregator_test, VanillaConfig(rounds=1), shared_builder)
        log = driver.run()[0]
        assert log.selected_members == ("A", "B", "C")
        assert log.aggregation_type == "not_consider"

    def test_clients_synchronized_after_round(self, clients, aggregator_test):
        driver = VanillaFL(clients, aggregator_test, VanillaConfig(rounds=1), shared_builder)
        driver.run()
        x = np.random.default_rng(5).normal(size=(4, 4))
        outs = [client.model.predict(x) for client in clients]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_accuracy_improves(self, clients, aggregator_test):
        driver = VanillaFL(clients, aggregator_test, VanillaConfig(rounds=4), shared_builder)
        driver.run()
        series = driver.accuracy_series("A")
        assert series[-1] > 0.7

    def test_per_client_accuracy_logged(self, clients, aggregator_test):
        driver = VanillaFL(clients, aggregator_test, VanillaConfig(rounds=1), shared_builder)
        log = driver.run()[0]
        assert set(log.client_accuracy) == {"A", "B", "C"}


class TestConsider:
    def test_members_subset(self, clients, aggregator_test):
        driver = VanillaFL(
            clients,
            aggregator_test,
            VanillaConfig(rounds=2, consider=True),
            shared_builder,
            rng=np.random.default_rng(0),
        )
        logs = driver.run()
        for log in logs:
            assert log.aggregation_type == "consider"
            assert 1 <= len(log.selected_members) <= 3
            assert set(log.selected_members) <= {"A", "B", "C"}

    def test_aggregator_accuracy_recorded(self, clients, aggregator_test):
        driver = VanillaFL(
            clients, aggregator_test, VanillaConfig(rounds=1, consider=True), shared_builder
        )
        log = driver.run()[0]
        assert 0.0 <= log.aggregator_accuracy <= 1.0

    def test_consider_never_below_full_average_on_agg_set(self, clients, aggregator_test):
        """Consider maximizes over subsets including the full set."""
        from repro.fl.aggregation import fedavg
        from repro.fl.evaluation import evaluate_weights

        driver = VanillaFL(
            clients, aggregator_test, VanillaConfig(rounds=1, consider=True), shared_builder
        )
        updates = [client.train_local(1) for client in clients]
        weights, _members, best_acc = driver._aggregate(updates)
        full_acc = evaluate_weights(driver._scratch_model, fedavg(updates), aggregator_test)
        assert best_acc >= full_acc
        del weights


class TestValidation:
    def test_no_clients_rejected(self, aggregator_test):
        with pytest.raises(ConfigError):
            VanillaFL([], aggregator_test, VanillaConfig(), shared_builder)
