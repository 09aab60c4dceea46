"""Weight initializers.

All initializers take an explicit numpy ``Generator`` so model construction
is deterministic per-seed — required for the reproducibility contract of the
experiment tables.
"""

from __future__ import annotations

import numpy as np


def he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He (Kaiming) normal initialization, suited to ReLU networks."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(np.float64)


def zeros_init(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros (biases)."""
    return np.zeros(shape, dtype=np.float64)
