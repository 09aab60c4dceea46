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

#: Share of an attacker's training labels that it flips: all of them.
FLIP_FRACTION = 1.0
#: The class every flipped label becomes.
TARGET_CLASS = 0


@dataclass
class LabelFlipAttacker:
    """Flip :data:`FLIP_FRACTION` of the training labels to :data:`TARGET_CLASS`.

    Classic data poisoning: the resulting model systematically confuses
    ``source -> target`` and drags any plain average towards that error.
    """

    def poison_dataset(self, dataset: Dataset, rng: np.random.Generator) -> Dataset:
        y = dataset.y.copy()
        mask = rng.random(len(y)) < FLIP_FRACTION
        y[mask] = TARGET_CLASS
        # Only labels change, so the poisoned split shares the samples.
        return Dataset(dataset.x, y, f"{dataset.name}/label_flipped")
