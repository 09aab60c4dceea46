"""Attackers producing abnormal model updates.

The paper frames abnormal models as arising "from the natural data
heterogeneity" or from poisoning, and argues the consider-style selection
excludes them.  These attackers generate both kinds for the ablation
benchmark: label-flipping (data poisoning), additive-noise (unintended
noisy models), and scaling (model-replacement flavoured).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.aggregation import ModelUpdate


class Attacker:
    """Interface: transform a client's honest behaviour into an attack."""

    def poison_dataset(self, dataset: Dataset, rng: np.random.Generator) -> Dataset:
        """Optionally corrupt the training data (default: pass through)."""
        return dataset

    def poison_update(self, update: ModelUpdate, rng: np.random.Generator) -> ModelUpdate:
        """Optionally corrupt the trained update (default: pass through)."""
        return update


@dataclass
class LabelFlipAttacker(Attacker):
    """Flip a fraction of training labels to a fixed target class.

    Classic data poisoning: the resulting model systematically confuses
    ``source -> target`` and drags any plain average towards that error.
    """

    flip_fraction: float = 1.0
    target_class: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.flip_fraction <= 1.0:
            raise ConfigError(f"flip_fraction must be in (0, 1], got {self.flip_fraction}")

    def poison_dataset(self, dataset: Dataset, rng: np.random.Generator) -> Dataset:
        y = dataset.y.copy()
        mask = rng.random(len(y)) < self.flip_fraction
        y[mask] = self.target_class
        # Only labels change, so the poisoned split shares the samples.
        return Dataset(dataset.x, y, f"{dataset.name}/label_flipped")


@dataclass
class NoiseAttacker(Attacker):
    """Add Gaussian noise to the trained weights (a 'noisy model').

    Models the unintended abnormality the paper attributes to heterogeneous
    or low-quality local data.
    """

    noise_std: float = 0.5

    def __post_init__(self) -> None:
        if self.noise_std <= 0:
            raise ConfigError(f"noise_std must be positive, got {self.noise_std}")

    def poison_update(self, update: ModelUpdate, rng: np.random.Generator) -> ModelUpdate:
        noisy = {
            key: value + rng.normal(0.0, self.noise_std, size=value.shape)
            for key, value in update.weights.items()
        }
        return ModelUpdate(
            client_id=update.client_id,
            weights=noisy,
            num_samples=update.num_samples,
            round_id=update.round_id,
            reported_accuracy=update.reported_accuracy,
            metadata={**update.metadata, "attack": "noise"},
        )


@dataclass
class ScaleAttacker(Attacker):
    """Scale the update by a large factor (model-replacement flavour).

    Against plain FedAvg a single scaled update dominates the average;
    median/trimmed-mean baselines resist it.
    """

    scale: float = 10.0

    def __post_init__(self) -> None:
        if self.scale == 1.0:
            raise ConfigError("scale of 1.0 is not an attack")

    def poison_update(self, update: ModelUpdate, rng: np.random.Generator) -> ModelUpdate:
        scaled = {key: value * self.scale for key, value in update.weights.items()}
        return ModelUpdate(
            client_id=update.client_id,
            weights=scaled,
            num_samples=update.num_samples,
            round_id=update.round_id,
            reported_accuracy=update.reported_accuracy,
            metadata={**update.metadata, "attack": "scale"},
        )
