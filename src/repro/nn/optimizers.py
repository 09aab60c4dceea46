"""The one optimizer of local training: SGD on a model's named parameter/gradient dicts."""

from __future__ import annotations

import numpy as np


class SGD:
    """Plain stochastic gradient descent with optional weight decay."""

    def __init__(self, learning_rate: float = 0.01, weight_decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.steps = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Apply one update to every parameter in place."""
        self.steps += 1
        for key in params:
            param, grad = params[key], grads[key]
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            param -= self.learning_rate * grad
