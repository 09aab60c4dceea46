"""Content-addressed off-chain weight store (the IPFS stand-in).

Full model weights are too large for economical on-chain storage (the paper
works around this by lifting Ethereum's size limits; related systems use
IPFS).  We store serialized weights in a content-addressed map shared by
the cohort: the key IS the hash committed on chain, so fetching by the
committed hash guarantees integrity — a peer cannot be served different
bytes than the author committed to.

The store is archive-aware: :meth:`put_archive` ingests a
:class:`~repro.nn.serialize.WeightArchive` whose single cached encoding
supplies both the payload and the content hash, and :meth:`get_archive`
memoizes decoded archives per content hash in a bounded LRU, so a blob
fetched by many peers across many polls is deserialized exactly once
while its round is live (historical models fall out of the cache instead
of pinning their ndarrays forever).  ``serializations`` /
``deserializations`` count the real marshalling work the store triggered
— the commitment-pipeline tests pin these to one per model per round.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

import numpy as np

from repro.errors import SerializationError
from repro.nn.serialize import SharedWeights, WeightArchive, WeightsLike, as_archive
from repro.utils.hashing import keccak_like

#: Decoded archives kept live at once.  A round re-fetches only the current
#: cohort's models, so the cache needs to span a couple of rounds of a large
#: cohort — beyond that, pinning every historical model's ndarrays alongside
#: the (already retained) serialized blobs would grow without bound.
DEFAULT_ARCHIVE_CACHE_SIZE = 64


class OffchainStore:
    """Shared content-addressed blob store with a decoded-archive LRU cache."""

    def __init__(self, archive_cache_size: int = DEFAULT_ARCHIVE_CACHE_SIZE) -> None:
        if archive_cache_size < 1:
            raise SerializationError("archive_cache_size must be >= 1")
        self._blobs: dict[str, bytes] = {}
        self._archives: OrderedDict[str, WeightArchive] = OrderedDict()
        self._archive_cache_size = archive_cache_size
        self.puts = 0
        self.gets = 0
        self.batch_fetches = 0      # batched multi-key fetch round trips
        self.serializations = 0     # weight encodes this store triggered
        self.deserializations = 0   # weight decodes this store triggered
        self.decode_hits = 0        # fetches answered from the decoded cache

    def put(self, payload: bytes) -> str:
        """Store bytes; returns their content hash (idempotent)."""
        key = keccak_like(payload)
        if key not in self._blobs:
            self._blobs[key] = bytes(payload)
        self.puts += 1
        return key

    def get(self, key: str) -> bytes:
        """Fetch bytes by content hash; raises if unknown."""
        try:
            blob = self._blobs[key]
        except KeyError:
            raise SerializationError(f"no off-chain blob for {key[:16]}...") from None
        self.gets += 1
        return blob

    def __contains__(self, key: str) -> bool:
        return key in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)

    # -- typed helpers ------------------------------------------------------

    def put_archive(self, archive: WeightArchive) -> str:
        """Store an archive; returns the commitment hash.

        The archive's cached encoding is the single source of payload,
        hash, and size — no re-serialization, no re-hash.  The decoded
        form is retained so subsequent fetches skip deserialization too.
        """
        freshly_encoded = not archive.encoded
        key = archive.hash  # materializes the payload (at most one encode)
        if freshly_encoded:  # counted only once the encode succeeded
            self.serializations += 1
        if key not in self._blobs:
            self._blobs[key] = archive.payload
        if key in self._archives:
            self._archives.move_to_end(key)  # re-commit marks the entry hot
        else:
            self._cache_archive(key, archive)
        self.puts += 1
        return key

    def _cache_archive(self, key: str, archive: WeightArchive) -> None:
        """Insert a not-yet-cached key at the LRU's hot end, evicting the
        stalest entry (both callers handle the already-cached case)."""
        self._archives[key] = archive
        while len(self._archives) > self._archive_cache_size:
            self._archives.popitem(last=False)

    def put_weights(self, weights: WeightsLike) -> str:
        """Serialize (at most once) and store weights; returns the hash."""
        return self.put_archive(as_archive(weights))

    def get_archive(self, key: str) -> WeightArchive:
        """Fetch the archive for ``key``, decoding at most once per
        residency in the LRU cache (once ever, for live working sets).

        Content integrity (bytes hash back to ``key``) is verified when
        the archive is materialized; cached hits skip the recheck because
        the blob map is append-only and cached entries derive from it.
        """
        cached = self._archives.get(key)
        if cached is not None:
            self.gets += 1
            self.decode_hits += 1
            self._archives.move_to_end(key)
            return cached
        payload = self.get(key)
        if keccak_like(payload) != key:  # defensive: store corruption
            raise SerializationError(f"content hash mismatch for {key[:16]}...")
        archive = WeightArchive.from_bytes(payload)
        archive.weights  # decode eagerly so corrupt payloads fail here
        self.deserializations += 1  # counted only once the decode succeeded
        self._cache_archive(key, archive)
        return archive

    def get_weights(self, key: str) -> dict[str, np.ndarray]:
        """Fetch a weight dict (fresh array copies, safe to mutate)."""
        return self.get_archive(key).copy_weights()

    def total_bytes(self) -> int:
        """Total stored payload size (for the model-size telemetry)."""
        return sum(len(blob) for blob in self._blobs.values())

    def maybe_get_weights(self, key: str) -> Optional[dict[str, np.ndarray]]:
        """Like :meth:`get_weights` but returns ``None`` when missing."""
        if key not in self._blobs:
            return None
        return self.get_weights(key)

    def fetch_available(self, keys: Iterable[str]) -> dict[str, SharedWeights]:
        """Batched fetch: every *present* key's weights in one lookup.

        The round-trip-shaped read path of the FL layer: a peer resolves
        all of a round's committed hashes in a single store visit (one
        IPFS batch request in a real deployment) instead of one probe per
        commitment.  Missing keys — blobs that have not propagated yet —
        are simply absent from the result.  Duplicate keys are fetched
        once.

        Every reader of a key gets the decoded archive's own arrays as
        read-only views (writing to one raises) together with the content
        fingerprint computed once per archive — a cohort of ``n`` peers
        reading ``n`` models costs ``n`` hashes and no copies, not ``n^2``
        of each.  :meth:`get_weights` is the call for arrays to mutate.
        """
        self.batch_fetches += 1
        found: dict[str, SharedWeights] = {}
        for key in keys:
            if key not in found and key in self._blobs:
                found[key] = self.get_archive(key).shared_weights()
        return found

    def marshalling_stats(self) -> dict:
        """Counters for the commitment-pipeline benchmarks."""
        return {
            "puts": self.puts,
            "gets": self.gets,
            "batch_fetches": self.batch_fetches,
            "serializations": self.serializations,
            "deserializations": self.deserializations,
            "decode_hits": self.decode_hits,
        }
