"""Local training loop: the five epochs of shuffled minibatch SGD each client runs per round."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.data.dataset import Dataset, batch_indices
from repro.errors import ConfigError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD


@dataclass
class TrainConfig:
    """Local-training hyperparameters (paper: 5 epochs per round)."""

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class TrainResult:
    """Summary of one local-training call."""

    epochs_run: int
    batches_run: int
    final_loss: float
    loss_history: list[float] = field(default_factory=list)


class LocalTrainer:
    """Runs epochs of shuffled minibatch SGD on a client's local dataset.

    Every epoch draws one permutation from ``rng``. A fresh :class:`SGD` is
    created per :meth:`train` call, so its step counter restarts after each
    global update, matching the paper's per-round PyTorch training.
    """

    def __init__(self, config: TrainConfig, rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.loss_fn = CrossEntropyLoss()

    def train(self, model: Sequential, dataset: Dataset) -> TrainResult:
        """Train ``model`` in place; returns loss telemetry."""
        config = self.config
        optimizer = SGD(config.learning_rate)
        loss_history: list[float] = []
        batches = 0
        last_loss = float("nan")
        # Features of the model's frozen prefix, filled on first use.
        inputs = model.inputs(dataset)
        for _epoch in range(config.epochs):
            epoch_losses = []
            for batch in batch_indices(len(dataset), config.batch_size, rng=self.rng):
                x_batch, start = inputs.rows(batch)
                loss = model.train_step(
                    x_batch, dataset.y[batch], self.loss_fn, optimizer, start=start
                )
                epoch_losses.append(loss)
                batches += 1
            if epoch_losses:
                last_loss = float(np.mean(epoch_losses))
                loss_history.append(last_loss)
        return TrainResult(
            epochs_run=config.epochs,
            batches_run=batches,
            final_loss=last_loss,
            loss_history=loss_history,
        )
