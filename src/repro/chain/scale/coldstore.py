"""Append-only, content-addressed cold storage for chain payloads.

One :class:`ColdStore` backs a whole cohort: blocks, receipt lists, and
state snapshots are identical across nodes (they are consensus data), so
the store is keyed by content identity (block hash, ``receipts:<hash>``,
``snapshot:<hash>``) and the first writer pays the encode while every
other node's ``put`` is a dedup hit.  Payloads are codec-v2 canonical
JSON (:func:`repro.utils.serialization.canonical_dumps`), appended to a
single anonymous segment file (``tempfile.TemporaryFile`` — the OS
reclaims it when the run exits) with an in-memory ``key -> (offset,
length)`` index.  Reads go through a small decoded-payload LRU so the
common access pattern — a burst of lookups against one cold block —
decodes once.

This module lives in ``repro/chain/scale/`` deliberately: it is the
library's only file-I/O surface, and the ``io-discipline`` lint rule
keeps it that way.
"""

from __future__ import annotations

import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.errors import ChainError
from repro.utils.serialization import canonical_dumps, canonical_loads


class ColdStoreError(ChainError):
    """Unknown key or corrupt segment read."""


@dataclass
class ColdStoreStats:
    """Counters surfaced in ``chain_stats()["storage"]``."""

    puts: int = 0            # payloads actually encoded and appended
    dedup_hits: int = 0      # put() calls answered by key presence
    reads: int = 0           # get() calls
    cache_hits: int = 0      # get() calls served from the decoded LRU
    bytes_written: int = 0   # segment-file growth

    def as_dict(self) -> dict:
        return {
            "puts": self.puts,
            "dedup_hits": self.dedup_hits,
            "reads": self.reads,
            "cache_hits": self.cache_hits,
            "bytes_written": self.bytes_written,
        }


class ColdStore:
    """Content-addressed segment file with a bounded decoded-payload LRU."""

    def __init__(self, cache_size: int = 32) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self._segment = tempfile.TemporaryFile(prefix="repro-coldstore-")
        self._index: dict[str, tuple[int, int]] = {}
        self._cache: "OrderedDict[str, Any]" = OrderedDict()
        self._cache_size = cache_size
        self._write_offset = 0
        self.stats = ColdStoreStats()

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterator[str]:
        """Stored keys, insertion-ordered."""
        return iter(self._index)

    def put(self, key: str, payload: Any) -> bool:
        """Store ``payload`` under ``key``; content-addressed, so a
        repeated key is a dedup hit and the payload is not re-encoded.

        ``payload`` may also be a zero-argument callable that builds it:
        it is called only for a new key, so every node but the first to
        spill a block pays for no payload at all.  Returns ``True`` when
        the payload was actually written.
        """
        if key in self._index:
            self.stats.dedup_hits += 1
            return False
        if callable(payload):
            payload = payload()
        encoded = canonical_dumps(payload)
        self._segment.seek(self._write_offset)
        self._segment.write(encoded)
        self._index[key] = (self._write_offset, len(encoded))
        self._write_offset += len(encoded)
        self.stats.puts += 1
        self.stats.bytes_written += len(encoded)
        return True

    def get(self, key: str, revive: Optional[Callable[[Any], Any]] = None) -> Any:
        """Decode and return the payload stored under ``key``.

        The LRU caches decoded payloads; callers must treat the returned
        object as immutable (it is shared with later cache hits).

        ``revive`` turns the canonical payload into the object to cache
        and return — and is where a reader checks it against its content
        address, raising to reject it.  It runs once per segment read,
        not per cache hit, so every reader of a key must pass the same
        ``revive``.
        """
        self.stats.reads += 1
        if key in self._cache:
            self.stats.cache_hits += 1
            self._cache.move_to_end(key)
            return self._cache[key]
        try:
            offset, length = self._index[key]
        except KeyError:
            raise ColdStoreError(f"no cold entry for {key!r}") from None
        self._segment.seek(offset)
        raw = self._segment.read(length)
        if len(raw) != length:
            raise ColdStoreError(f"truncated segment read for {key!r}")
        payload = canonical_loads(raw)
        if revive is not None:
            payload = revive(payload)
        if self._cache_size:
            self._cache[key] = payload
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return payload

    def bytes_stored(self) -> int:
        """Total segment-file bytes currently indexed."""
        return self._write_offset

    def close(self) -> None:
        """Release the segment file (the store becomes unusable)."""
        self._segment.close()
        self._index.clear()
        self._cache.clear()
