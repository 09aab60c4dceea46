"""The loss of local training: softmax cross entropy, and its logit gradient.

Local training needs only the gradient (:meth:`~repro.nn.model.Sequential.train_step`);
the loss value is for tests and gradient checks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def _shifted(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``logits`` less each row's maximum, after checking the shapes.

    Labels index columns, so they must be non-negative integers — which
    :class:`~repro.data.dataset.Dataset` checks once, where it is free; one
    at or past the class count raises ``IndexError``.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    if labels.shape != logits.shape[:1]:
        raise ShapeError(f"labels of shape {labels.shape} for {logits.shape[0]} logits")
    return logits - logits.max(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross entropy over the batch, as a log-softmax:
    ``log sum(exp(shifted)) - shifted[label]`` per row, so it stays exact
    however small a label's probability is."""
    shifted = _shifted(logits, labels)
    rows = np.arange(labels.shape[0])
    return float((np.log(np.exp(shifted).sum(axis=1)) - shifted[rows, labels]).mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """dL/dlogits, already averaged over the batch: ``(softmax - onehot) / n``.

    Each row's label column is indexed instead of subtracting a one-hot
    matrix: every other term of that subtraction is a signed zero, so the
    result comes out bit for bit the same.
    """
    exp = np.exp(_shifted(logits, labels))
    probs = exp / exp.sum(axis=1, keepdims=True)
    probs[np.arange(labels.shape[0]), labels] -= 1.0
    probs /= logits.shape[0]
    return probs
