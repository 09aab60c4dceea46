"""The one optimizer of local training: SGD on a model's named parameter/gradient dicts."""

from __future__ import annotations

import math

import numpy as np


class SGD:
    """Plain stochastic gradient descent."""

    def __init__(self, learning_rate: float = 0.01) -> None:
        if not 0 < learning_rate < math.inf:
            raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
        self.learning_rate = learning_rate
        self.steps = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Apply one update to every parameter in place."""
        self.steps += 1
        for key in params:
            params[key] -= self.learning_rate * grads[key]
