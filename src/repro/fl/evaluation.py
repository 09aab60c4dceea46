"""Evaluation helpers: score a model or a raw weight dict on a dataset."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.model import Sequential


def evaluate_on(model: Sequential, dataset: Dataset, batch_size: int = 512) -> float:
    """Test accuracy of ``model`` on ``dataset`` (through the memoised
    features of the model's frozen prefix, when it has one)."""
    x, start = model.inputs(dataset).chunked(batch_size)
    return model.evaluate_accuracy(x, dataset.y, batch_size=batch_size, start=start)


def evaluate_weights(
    model: Sequential,
    weights: dict[str, np.ndarray],
    dataset: Dataset,
    batch_size: int = 512,
) -> float:
    """Accuracy of ``weights`` using ``model`` as scratch architecture.

    Saves and restores the model's own weights, so the call has no side
    effects — this is the primitive behind "evaluate the fitness of the
    shared model" on a client's private test set.
    """
    saved = model.get_weights()
    try:
        model.set_weights(weights)
        return evaluate_on(model, dataset, batch_size=batch_size)
    finally:
        model.set_weights(saved)
