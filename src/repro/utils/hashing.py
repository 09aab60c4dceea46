"""Hashing helpers used across the blockchain substrate.

Real Ethereum uses Keccak-256; we use SHA-256 (available in the standard
library) behind the same helper API.  The choice does not affect any result
in the reproduced evaluation: hashes are only used for identification and
commitment.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np


def sha256_bytes(data: bytes) -> bytes:
    """Return the raw 32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Return the hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def keccak_like(data: bytes) -> str:
    """Ethereum-style 0x-prefixed 32-byte hash (SHA-256 underneath)."""
    return "0x" + sha256_hex(data)


def _normalize(obj: Any) -> Any:
    """Convert ``obj`` into a JSON-serializable canonical form."""
    if isinstance(obj, dict):
        return {str(key): _normalize(value) for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_normalize(item) for item in obj]
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tobytes().hex(), "dtype": str(obj.dtype), "shape": list(obj.shape)}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def hash_object(obj: Any) -> str:
    """Hash an arbitrary JSON-normalizable object deterministically.

    Dictionaries are key-sorted and numpy arrays are hashed over their raw
    buffer, so two structurally equal objects always produce the same hash.
    """
    payload = json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"))
    return keccak_like(payload.encode("utf-8"))


def hash_concat(*parts: bytes) -> bytes:
    """Hash the length-prefixed concatenation of byte strings.

    Length prefixes prevent ambiguity: ``hash_concat(b"ab", b"c")`` differs
    from ``hash_concat(b"a", b"bc")``.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()
