"""The loss of local training: softmax cross entropy, with its input gradient."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


class CrossEntropyLoss:
    """Softmax + cross entropy over integer class labels.

    Operates on raw logits; combining softmax with the loss keeps the
    backward pass numerically stable (``softmax - onehot``).
    """

    def _probs_and_targets(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Softmax of ``logits`` and the one-hot rows of ``labels``.

        Labels index one-hot rows, so they must be non-negative integers —
        which :class:`~repro.data.dataset.Dataset` checks once, where it is
        free; one at or past the class count raises ``IndexError`` here.
        """
        if logits.ndim != 2:
            raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
        if labels.shape != logits.shape[:1]:
            raise ShapeError(f"labels of shape {labels.shape} for {logits.shape[0]} logits")
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        targets = np.eye(logits.shape[1])[labels]
        return probs, targets

    def loss(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross entropy over the batch."""
        return self.loss_and_grad(logits, labels)[0]

    def gradient(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """dL/dlogits, already averaged over the batch."""
        return self.loss_and_grad(logits, labels)[1]

    def loss_and_grad(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Both loss and gradient from one softmax and one target matrix."""
        probs, targets = self._probs_and_targets(logits, labels)
        loss = float(-(targets * np.log(probs + 1e-12)).sum(axis=1).mean())
        return loss, (probs - targets) / logits.shape[0]

