"""Local training: the five epochs of shuffled minibatch descent a client runs per round."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import Dataset, batch_indices
from repro.errors import ConfigError
from repro.nn.model import Sequential


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
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")


class LocalTrainer:
    """Runs epochs of shuffled minibatch gradient descent on a client's local dataset.

    Every epoch draws one permutation from ``rng``; every minibatch is one
    :meth:`~repro.nn.model.Sequential.train_step` at the configured
    learning rate.  Nothing evaluates the loss: a round reads only the
    trained weights.

    The model holds training scratch (gradients, cached batch inputs, ReLU
    masks) only while :meth:`train` runs: nothing reads it between rounds,
    so :meth:`train` releases it before it returns.
    """

    def __init__(self, config: TrainConfig, rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def train(self, model: Sequential, dataset: Dataset) -> None:
        """Train ``model`` in place."""
        config = self.config
        # Features of the model's frozen prefix, filled on first use.
        inputs = model.inputs(dataset)
        for _epoch in range(config.epochs):
            for batch in batch_indices(len(dataset), config.batch_size, rng=self.rng):
                x_batch, start = inputs.rows(batch)
                model.train_step(x_batch, dataset.y[batch], config.learning_rate, start=start)
        model.release_scratch()
