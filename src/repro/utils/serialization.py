"""Canonical serialization for chain payloads and model weights.

Transactions, blocks, and contract call arguments must hash identically on
every node, so all wire encoding goes through ``canonical_dumps``: JSON with
sorted keys and explicit tagging for bytes and numpy arrays.  This plays the
role RLP plays in Ethereum.
"""

from __future__ import annotations

import base64
import json
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.errors import SerializationError

_BYTES_TAG = "__bytes_b64__"
_NDARRAY_TAG = "__ndarray_b64__"


def encode_bytes(data: bytes) -> str:
    """Base64-encode bytes into a JSON-safe string."""
    return base64.b64encode(data).decode("ascii")


def decode_bytes(text: str) -> bytes:
    """Inverse of :func:`encode_bytes`."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:  # binascii.Error and friends
        raise SerializationError(f"invalid base64 payload: {exc}") from exc


def _encode(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(key): _encode(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(item) for item in obj]
    if isinstance(obj, bytes):
        return {_BYTES_TAG: encode_bytes(obj)}
    if isinstance(obj, np.ndarray):
        contiguous = np.ascontiguousarray(obj)
        return {
            _NDARRAY_TAG: encode_bytes(contiguous.tobytes()),
            "dtype": str(contiguous.dtype),
            "shape": list(contiguous.shape),
        }
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, MappingProxyType):  # a frozen mapping: see freeze()
        return {str(key): _encode(value) for key, value in obj.items()}
    raise SerializationError(f"cannot canonically serialize {type(obj).__name__}")


#: The leaves ``canonical_dumps`` accepts that nobody can edit in place.
_IMMUTABLE_LEAVES = (str, int, float, bool, bytes, type(None), np.integer, np.floating, np.bool_)


def freeze(obj: Any) -> Any:
    """A private, recursively read-only copy of a canonical payload.

    Mappings become a ``MappingProxyType`` over a dict nobody else holds,
    lists and tuples become tuples, immutable leaves pass through; the
    copy encodes to the same ``canonical_dumps`` bytes as ``obj``.
    Anything else — including a mutable ``ndarray`` — is a
    :class:`SerializationError`, so what a signed object holds can neither
    be edited in place nor through the object it was built from.
    """
    if isinstance(obj, _IMMUTABLE_LEAVES):
        return obj
    if isinstance(obj, (dict, MappingProxyType)):
        return MappingProxyType({key: freeze(value) for key, value in obj.items()})
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(item) for item in obj)
    raise SerializationError(f"cannot freeze {type(obj).__name__}")


def _decode(obj: Any) -> Any:
    if isinstance(obj, dict):
        if set(obj) == {_BYTES_TAG}:
            return decode_bytes(obj[_BYTES_TAG])
        if _NDARRAY_TAG in obj and set(obj) == {_NDARRAY_TAG, "dtype", "shape"}:
            raw = decode_bytes(obj[_NDARRAY_TAG])
            array = np.frombuffer(raw, dtype=np.dtype(obj["dtype"]))
            return array.reshape(obj["shape"]).copy()
        return {key: _decode(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_decode(item) for item in obj]
    return obj


def canonical_dumps(obj: Any) -> bytes:
    """Serialize ``obj`` to canonical (sorted-key) JSON bytes."""
    try:
        return json.dumps(_encode(obj), sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc


def canonical_loads(data: bytes) -> Any:
    """Inverse of :func:`canonical_dumps`."""
    try:
        return _decode(json.loads(data.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"invalid canonical payload: {exc}") from exc
