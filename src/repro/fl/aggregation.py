"""Model aggregation: FedAvg.

``fedavg`` is the paper's aggregation algorithm (McMahan et al. [1]):
sample-count-weighted averaging of weight dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import AggregationError
from repro.nn.serialize import WeightArchive


@dataclass
class ModelUpdate:
    """One client's contribution to a round."""

    client_id: str
    weights: dict[str, np.ndarray]
    num_samples: int
    round_id: int = -1
    reported_accuracy: float = 0.0
    metadata: dict = field(default_factory=dict)
    #: ``weights_fingerprint(weights)`` when whoever built the update already
    #: knows it (fetched, read-only weights); None means "hash the buffers".
    fingerprint: Optional[str] = None
    _archive: Optional[WeightArchive] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise AggregationError(f"{self.client_id}: num_samples must be positive")
        if not self.weights:
            raise AggregationError(f"{self.client_id}: empty weight dict")

    def archive(self) -> WeightArchive:
        """Cached single-encoding archive of this update's weights.

        Everything on the commitment path (off-chain payload, on-chain
        hash, size telemetry) should read from this one archive; building
        it here means re-commits of the same update never re-serialize.
        The weights must not be mutated after the first call.
        """
        if self._archive is None:
            self._archive = WeightArchive.from_weights(self.weights)
        return self._archive


def _check_compatible(updates: Sequence[ModelUpdate]) -> list[str]:
    """Validate updates share keys/shapes; return the sorted key list."""
    if not updates:
        raise AggregationError("no model updates to aggregate")
    keys = sorted(updates[0].weights)
    for update in updates[1:]:
        if sorted(update.weights) != keys:
            raise AggregationError(
                f"{update.client_id}: weight keys differ from {updates[0].client_id}"
            )
        for key in keys:
            if update.weights[key].shape != updates[0].weights[key].shape:
                raise AggregationError(
                    f"{update.client_id}: {key} shape {update.weights[key].shape} "
                    f"!= {updates[0].weights[key].shape}"
                )
    return keys


def fedavg(updates: Sequence[ModelUpdate]) -> dict[str, np.ndarray]:
    """Sample-count-weighted federated averaging (the paper's aggregator).

    ``w_global = sum_k (n_k / n) * w_k`` per parameter tensor.
    """
    keys = _check_compatible(updates)
    total = sum(update.num_samples for update in updates)
    aggregated: dict[str, np.ndarray] = {}
    for key in keys:
        stacked = np.stack([update.weights[key] for update in updates])
        weights = np.array([update.num_samples / total for update in updates])
        aggregated[key] = np.tensordot(weights, stacked, axes=1)
    return aggregated
