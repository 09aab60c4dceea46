"""Federated client: local data, local model, train/evaluate/update cycle."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.aggregation import ModelUpdate
from repro.fl.evaluation import evaluate_on, evaluate_weights
from repro.fl.trainer import LocalTrainer, TrainConfig
from repro.nn.model import Sequential


class FLClient:
    """One participant: private train/test data plus a local model.

    The ``model_builder`` callable receives the client's RNG and returns a
    built :class:`Sequential`; every client of an experiment uses the same
    builder so architectures match for aggregation (the paper's shared-model
    assumption).  An adversarial client is built from a poisoned
    ``train_set``; the client itself trains and reports honestly.
    """

    def __init__(
        self,
        client_id: str,
        train_config: TrainConfig,
        train_set: Dataset,
        test_set: Dataset,
        model_builder: Callable[[np.random.Generator], Sequential],
        rng: np.random.Generator,
    ) -> None:
        if not client_id:
            raise ConfigError("client_id must be non-empty")
        self.client_id = client_id
        self.train_set = train_set
        self.test_set = test_set
        self.model = model_builder(rng)
        self.trainer = LocalTrainer(train_config, rng=rng)
        self.rounds_trained = 0

    @property
    def num_samples(self) -> int:
        """Local training-set size (FedAvg weight)."""
        return len(self.train_set)

    def train_local(self, round_id: int) -> ModelUpdate:
        """Run local epochs and package the resulting update."""
        self.trainer.train(self.model, self.train_set)
        self.rounds_trained += 1
        return ModelUpdate(
            client_id=self.client_id,
            weights=self.model.get_weights(),
            num_samples=self.num_samples,
            round_id=round_id,
            reported_accuracy=self.evaluate(),
        )

    def evaluate(self) -> float:
        """Accuracy of the current local model on the private test set."""
        return evaluate_on(self.model, self.test_set)

    def evaluate_weights(self, weights: dict[str, np.ndarray]) -> float:
        """Fitness of foreign ``weights`` on this client's test set."""
        return evaluate_weights(self.model, weights, self.test_set)

    def apply_global(self, weights: dict[str, np.ndarray]) -> None:
        """Install an aggregated model as the starting point of the next round."""
        self.model.set_weights(weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FLClient(id={self.client_id!r}, n={self.num_samples})"
