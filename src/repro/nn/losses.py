"""The loss of local training: softmax cross entropy, with its input gradient."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


class CrossEntropyLoss:
    """Softmax + cross entropy over integer class labels.

    Operates on raw logits; combining softmax with the loss keeps the
    backward pass numerically stable (``softmax - onehot``).
    """

    def loss(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross entropy over the batch."""
        return self.loss_and_grad(logits, labels)[0]

    def gradient(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """dL/dlogits, already averaged over the batch."""
        return self.loss_and_grad(logits, labels)[1]

    def loss_and_grad(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Both loss and gradient from one softmax.

        The loss is a log-softmax, ``log sum(exp(shifted)) - shifted[label]``
        per row, so it stays exact however small a label's probability is.
        Each row's label column is indexed instead of multiplying by a
        one-hot matrix: every other term of the one-hot product is a
        signed zero, so ``softmax - onehot`` comes out bit for bit the
        same.  Labels index columns, so they must be non-negative
        integers — which :class:`~repro.data.dataset.Dataset` checks once,
        where it is free; one at or past the class count raises
        ``IndexError`` here.
        """
        if logits.ndim != 2:
            raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
        if labels.shape != logits.shape[:1]:
            raise ShapeError(f"labels of shape {labels.shape} for {logits.shape[0]} logits")
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        total = exp.sum(axis=1, keepdims=True)
        rows = np.arange(labels.shape[0])
        loss = float((np.log(total[:, 0]) - shifted[rows, labels]).mean())
        probs = exp / total
        probs[rows, labels] -= 1.0
        probs /= logits.shape[0]
        return loss, probs
