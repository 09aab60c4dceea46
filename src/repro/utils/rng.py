"""Deterministic random-number management.

Every stochastic component in the library (dataset synthesis, weight
initialization, mining jitter, network latency, label flipping) draws from a
named stream derived from a single experiment seed.  This guarantees that
tables and figures regenerate bit-identically while keeping the streams
independent: adding draws to one stream never perturbs another.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from ``root_seed`` and a path of labels.

    The derivation hashes the root seed together with the textual labels so
    the mapping is stable across processes and Python versions (unlike
    ``hash()``, which is salted).

    >>> derive_seed(7, "data") != derive_seed(7, "mining")
    True
    >>> derive_seed(7, "data") == derive_seed(7, "data")
    True
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("utf-8"))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") & _MASK64


def rng_from(root_seed: int, *labels: object) -> np.random.Generator:
    """Return a numpy ``Generator`` for the stream named by ``labels``."""
    return np.random.default_rng(derive_seed(root_seed, *labels))


class RngFactory:
    """Factory handing out independent named RNG streams.

    The factory memoizes generators so that repeated requests for the same
    stream return the *same* generator object (continuing its sequence),
    while distinct names give statistically independent streams.

    Example
    -------
    >>> factory = RngFactory(seed=42)
    >>> a = factory.get("client", 0)
    >>> b = factory.get("client", 1)
    >>> a is factory.get("client", 0)
    True
    >>> a is b
    False
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[tuple[str, ...], np.random.Generator] = {}

    def get(self, *labels: object) -> np.random.Generator:
        """Return (creating if needed) the generator for ``labels``."""
        key = tuple(str(label) for label in labels)
        if key not in self._streams:
            self._streams[key] = rng_from(self.seed, *key)
        return self._streams[key]

    def spawn(self, *labels: object) -> "RngFactory":
        """Return a child factory rooted at a derived seed.

        Useful for handing a component its own private namespace.
        """
        return RngFactory(derive_seed(self.seed, *labels))

    def integers(self, *labels: object, low: int = 0, high: int = 2**31) -> int:
        """Draw one integer from the named stream (convenience helper)."""
        return int(self.get(*labels).integers(low, high))

    def stream_names(self) -> Iterator[tuple[str, ...]]:
        """Iterate over the names of streams created so far."""
        return iter(sorted(self._streams))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed}, streams={len(self._streams)})"
