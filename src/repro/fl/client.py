"""Federated client: local data, local model, train/evaluate/update cycle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.aggregation import ModelUpdate
from repro.fl.evaluation import evaluate_on, evaluate_weights
from repro.fl.poisoning import Attacker
from repro.fl.trainer import LocalTrainer, TrainConfig, TrainResult
from repro.nn.model import Sequential


@dataclass
class ClientConfig:
    """Identity and training setup for one client.

    ``attacker`` optionally turns the client adversarial: its
    :meth:`~repro.fl.poisoning.Attacker.poison_update` hook runs on every
    update the client produces (dataset-level poisoning is applied by the
    scenario runner before the client is built, so the honest path here
    stays untouched).
    """

    client_id: str
    train_config: TrainConfig
    model_kind: str = "simple_nn"
    attacker: Optional[Attacker] = None

    def __post_init__(self) -> None:
        if not self.client_id:
            raise ConfigError("client_id must be non-empty")


class FLClient:
    """One participant: private train/test data plus a local model.

    The ``model_builder`` callable receives the client's RNG and returns a
    built :class:`Sequential`; every client of an experiment uses the same
    builder so architectures match for aggregation (the paper's shared-model
    assumption).
    """

    def __init__(
        self,
        config: ClientConfig,
        train_set: Dataset,
        test_set: Dataset,
        model_builder: Callable[[np.random.Generator], Sequential],
        rng: np.random.Generator,
        attack_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config
        self.client_id = config.client_id
        self.train_set = train_set
        self.test_set = test_set
        self.rng = rng
        # Adversarial draws live on their own stream so that enabling an
        # attacker never perturbs the honest training randomness.
        self.attack_rng = attack_rng if attack_rng is not None else rng
        self.model = model_builder(rng)
        self.trainer = LocalTrainer(config.train_config, rng=rng)
        self.rounds_trained = 0
        self.last_train_result: Optional[TrainResult] = None

    @property
    def num_samples(self) -> int:
        """Local training-set size (FedAvg weight)."""
        return len(self.train_set)

    def train_local(self, round_id: int) -> ModelUpdate:
        """Run local epochs and package the resulting update."""
        result = self.trainer.train(self.model, self.train_set)
        self.last_train_result = result
        self.rounds_trained += 1
        update = ModelUpdate(
            client_id=self.client_id,
            weights=self.model.get_weights(),
            num_samples=self.num_samples,
            round_id=round_id,
            reported_accuracy=self.evaluate(),
        )
        if self.config.attacker is not None:
            update = self.config.attacker.poison_update(update, self.attack_rng)
        return update

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
