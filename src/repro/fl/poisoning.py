"""The label-flip attacker: poisoned training data.

The paper frames abnormal models as arising "from the natural data
heterogeneity" or from poisoning, and argues the consider-style selection
excludes them.  An adversary here corrupts its training split only; the
scenario runner applies :meth:`LabelFlipAttacker.poison_dataset` before
the client is built, so the model it commits is an honestly trained model
of poisoned data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.data.synthetic import NUM_CLASSES
from repro.errors import ConfigError


@dataclass
class LabelFlipAttacker:
    """Flip a fraction of training labels to a fixed target class.

    Classic data poisoning: the resulting model systematically confuses
    ``source -> target`` and drags any plain average towards that error.
    """

    flip_fraction: float = 1.0
    target_class: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.flip_fraction <= 1.0:
            raise ConfigError(f"flip_fraction must be in (0, 1], got {self.flip_fraction}")
        if not 0 <= self.target_class < NUM_CLASSES:
            raise ConfigError(
                f"label-flip target_class {self.target_class} is out of range "
                f"for {NUM_CLASSES} classes"
            )

    def poison_dataset(self, dataset: Dataset, rng: np.random.Generator) -> Dataset:
        y = dataset.y.copy()
        mask = rng.random(len(y)) < self.flip_fraction
        y[mask] = self.target_class
        # Only labels change, so the poisoned split shares the samples.
        return Dataset(dataset.x, y, f"{dataset.name}/label_flipped")
