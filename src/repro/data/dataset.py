"""Dataset container and batching utilities (the DataLoader stand-in)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import DataError, ShapeError


#: Rows per ``extract`` call of :meth:`Dataset.features`: bounds the
#: extractor's temporaries (the RBF trunk's are rows x anchors x latent).
FEATURE_CHUNK = 512


@dataclass
class Dataset:
    """Immutable pair of feature array and integer label array."""

    x: np.ndarray
    y: np.ndarray
    name: str = "dataset"
    #: Extractor token -> what that extractor makes of ``x`` (see
    #: :meth:`features`).  Belongs to this object: ``subset`` / ``take`` /
    #: ``flattened`` copies start empty.
    _features: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: :func:`repro.fl.scoring.dataset_fingerprint` of this object, once
    #: computed; copies start without one.
    fingerprint: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    feature_hits: int = field(default=0, init=False, repr=False, compare=False)
    feature_misses: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ShapeError(f"{len(self.x)} samples vs {len(self.y)} labels")
        if self.y.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {self.y.shape}")
        # A label indexes a one-hot row: -1 would silently mean the last class.
        if self.y.dtype.kind not in "iu":
            raise DataError(f"labels must be integers, got dtype {self.y.dtype}")
        if len(self.y) and self.y.min() < 0:
            raise DataError(f"labels must be non-negative, got {self.y.min()}")

    def __len__(self) -> int:
        return len(self.x)

    def features(self, token: str, extract: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``extract`` applied to ``x``, computed once per ``token``.

        ``token`` names everything ``extract``'s output depends on besides
        its input rows (a frozen trunk's content hash).  The first call
        runs ``extract`` over ``x`` in :data:`FEATURE_CHUNK`-row slices;
        the rows come back read-only, like ``x`` is by contract.
        """
        rows = self._features.get(token)
        if rows is None:
            self.feature_misses += 1
            rows = np.concatenate(
                [
                    extract(self.x[begin : begin + FEATURE_CHUNK])
                    for begin in range(0, max(len(self), 1), FEATURE_CHUNK)
                ]
            )
            rows.flags.writeable = False
            self._features[token] = rows
        else:
            self.feature_hits += 1
        return rows

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        """Row-select a new dataset (copies, so slices are independent)."""
        return Dataset(self.x[indices].copy(), self.y[indices].copy(), name or self.name)

    def flattened(self) -> "Dataset":
        """View with images flattened to vectors (for MLP models)."""
        return Dataset(self.x.reshape(len(self.x), -1), self.y, self.name)

    def class_counts(self, num_classes: int) -> np.ndarray:
        """Histogram of labels."""
        return np.bincount(self.y, minlength=num_classes)

    def take(self, n: int) -> "Dataset":
        """First ``n`` samples."""
        if not 0 <= n <= len(self):
            raise DataError(f"cannot take {n} from {len(self)} samples")
        return Dataset(self.x[:n].copy(), self.y[:n].copy(), self.name)


def batch_indices(
    size: int,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[np.ndarray]:
    """Yield the row indices of each minibatch of a ``size``-row epoch,
    shuffled (one ``rng.shuffle``) when ``rng`` is given."""
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    indices = np.arange(size)
    if rng is not None:
        rng.shuffle(indices)
    for start in range(0, len(indices), batch_size):
        yield indices[start : start + batch_size]

