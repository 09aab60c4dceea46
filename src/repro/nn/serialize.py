"""Weight (de)serialization, hashing, and the cached commitment archive.

Serialized weights are what peers exchange: the bytes go to the off-chain
content-addressed store, and their hash goes on chain as the non-repudiable
commitment (see :class:`repro.contracts.model_store.ModelStore`).  A
byte-identical round trip is guaranteed for any weight dict.

Encoding a full weight dict is the most expensive marshalling step on the
commitment hot path, so :class:`WeightArchive` memoizes it: ``payload``,
``hash``, and ``size`` are all derived from a *single* encoding (and a
single decoding on the fetch side).  The free functions below remain for
one-shot use; anything per-round should go through an archive — see
:meth:`repro.core.offchain.OffchainStore.put_archive` and the peer submit
path in :meth:`repro.core.peer.FullPeer.train_and_commit`.

There is one wire format, binary **v2**: a fixed magic, a compact JSON
header describing name/dtype/shape per entry, then the raw C-contiguous
array buffers concatenated — no base64, no JSON number parsing for array
data, so encoding is a header plus ``len(weights)`` buffer copies.  A
payload that does not start with the magic — an archive in the retired
JSON-with-tagged-ndarrays v1 encoding included — is rejected with
:class:`~repro.errors.SerializationError`.

Module-level :data:`SERIALIZATION_STATS` counts real encode/decode work so
tests and benchmarks can assert the hot path serializes once per model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import SerializationError
from repro.utils.hashing import keccak_like

# Unused since codec v1 went, kept because benchmarks/perf/test_perf_harness.py
# (frozen by the benchmark contract) reads ``repro.nn.serialize.canonical_dumps``
# as its example of a by-name import the tracer must rebind; drop it in the
# next [benchmark] PR.
from repro.utils.serialization import canonical_dumps  # noqa: F401

_FORMAT_VERSION = 2
#: Every payload starts with this magic (never valid JSON).
_V2_MAGIC = b"WAv2\x00"
_V2_HEADER_LEN_BYTES = 8


@dataclass
class SerializationStats:
    """Counters of actual (non-memoized) weight marshalling work."""

    encodes: int = 0
    decodes: int = 0

    def reset(self) -> None:
        """Zero the counters (tests/benchmarks call this between phases)."""
        self.encodes = 0
        self.decodes = 0

    def as_dict(self) -> dict:
        return {"encodes": self.encodes, "decodes": self.decodes}


#: Process-wide marshalling counters; every :func:`weights_to_bytes` /
#: :func:`weights_from_bytes` call increments these exactly once.
SERIALIZATION_STATS = SerializationStats()


def weights_to_bytes(weights: dict[str, np.ndarray]) -> bytes:
    """Serialize a named weight dict to canonical bytes (the v2 format)."""
    for key, value in weights.items():
        if not isinstance(value, np.ndarray):
            raise SerializationError(f"weight {key!r} is {type(value).__name__}, not ndarray")
    entries = []
    buffers = []
    for key in sorted(weights):
        array = weights[key]
        if array.dtype.hasobject:
            # tobytes() would serialize pointers: an undecodable payload
            # that still hashes fine — refuse before it can be committed.
            raise SerializationError(f"weight {key!r} has non-serializable dtype {array.dtype}")
        if not array.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
            array = np.ascontiguousarray(array)
        entries.append({"name": key, "dtype": str(array.dtype), "shape": list(array.shape)})
        buffers.append(array.tobytes())
    header = json.dumps(
        {"version": _FORMAT_VERSION, "entries": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    SERIALIZATION_STATS.encodes += 1
    return b"".join(
        [_V2_MAGIC, len(header).to_bytes(_V2_HEADER_LEN_BYTES, "big"), header, *buffers]
    )


def _weights_from_v2(payload: bytes) -> dict[str, np.ndarray]:
    offset = len(_V2_MAGIC) + _V2_HEADER_LEN_BYTES
    header_len = int.from_bytes(payload[len(_V2_MAGIC):offset], "big")
    try:
        header = json.loads(payload[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt v2 weight header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("entries"), list):
        raise SerializationError("payload is not a weight archive")
    if header.get("version") != _FORMAT_VERSION:
        raise SerializationError(f"unsupported weight format version {header.get('version')!r}")
    cursor = offset + header_len
    weights: dict[str, np.ndarray] = {}
    for entry in header["entries"]:
        try:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(dim) for dim in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"corrupt v2 weight entry: {exc}") from exc
        count = 1
        for dim in shape:
            count *= dim
        nbytes = count * dtype.itemsize
        if cursor + nbytes > len(payload):
            raise SerializationError(f"truncated v2 buffer for entry {name!r}")
        try:
            array = np.frombuffer(payload, dtype=dtype, count=count, offset=cursor)
            weights[name] = array.reshape(shape).copy()
        except (ValueError, TypeError) as exc:  # e.g. object dtype in a forged header
            raise SerializationError(f"undecodable v2 buffer for entry {name!r}: {exc}") from exc
        cursor += nbytes
    if cursor != len(payload):
        raise SerializationError("trailing bytes after v2 weight buffers")
    return weights


def weights_from_bytes(payload: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`weights_to_bytes`."""
    if payload[: len(_V2_MAGIC)] != _V2_MAGIC:
        raise SerializationError("payload is not a weight archive (no v2 magic)")
    weights = _weights_from_v2(bytes(payload))
    SERIALIZATION_STATS.decodes += 1
    return weights


def weights_fingerprint(weights: dict[str, np.ndarray]) -> str:
    """Content hash of a weight dict (sorted keys, dtype, shape, buffer).

    The in-memory identity of a model — what the scoring engine's
    evaluation cache is keyed by (:mod:`repro.fl.scoring`) — as opposed to
    :attr:`WeightArchive.hash`, the commitment over the *encoded* bytes.
    """
    digest = hashlib.sha256()
    for key in sorted(weights):
        array = np.ascontiguousarray(weights[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(str(array.shape).encode("ascii"))
        digest.update(array.data)
    return digest.hexdigest()


class SharedWeights(dict):
    """One archive's arrays as read-only views, with their fingerprint.

    What :meth:`WeightArchive.shared_weights` hands to readers: a plain
    weight dict to everything that only reads it, whose arrays refuse
    writes and whose :func:`weights_fingerprint` is already known.
    """

    __slots__ = ("fingerprint",)

    def __init__(self, weights: dict[str, np.ndarray], fingerprint: str) -> None:
        super().__init__()
        for key, value in weights.items():
            view = value.view()
            view.flags.writeable = False
            self[key] = view
        self.fingerprint = fingerprint


class WeightArchive:
    """One weight dict behind a single cached encoding.

    The commitment pipeline needs three views of the same model —
    ``payload`` (off-chain bytes), ``hash`` (on-chain commitment), and
    ``size`` (the paper's model-size telemetry) — and the seed code paid
    one full serialization for each.  An archive computes the encoding
    lazily, once, and answers all three from it; built from bytes, it
    decodes lazily, once.

    Arrays reachable through :attr:`weights` are shared, not copied:
    treat them as read-only.  Readers get :meth:`shared_weights` —
    non-writeable views plus the dict's :attr:`fingerprint`, hashed once
    per archive however many peers read it — or :meth:`copy_weights` when
    they need arrays of their own.

    Exactly one of ``weights`` / ``payload`` may be supplied: the other
    view is always *derived* from it, so an archive can never carry an
    inconsistent pair (e.g. honest bytes hiding a different decoded dict
    — which would let a byzantine peer poison the off-chain store's
    decoded cache under an honest commitment hash).
    """

    __slots__ = ("_weights", "_payload", "_hash", "_fingerprint")

    def __init__(
        self,
        weights: Optional[dict[str, np.ndarray]] = None,
        payload: Optional[bytes] = None,
    ) -> None:
        if (weights is None) == (payload is None):
            raise SerializationError("WeightArchive needs exactly one of weights or payload")
        self._weights = weights
        self._payload = payload
        self._hash: Optional[str] = None
        self._fingerprint: Optional[str] = None

    @classmethod
    def from_weights(cls, weights: dict[str, np.ndarray]) -> "WeightArchive":
        """Archive an in-memory weight dict (encoding deferred)."""
        return cls(weights=weights)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "WeightArchive":
        """Archive stored bytes (decoding deferred)."""
        return cls(payload=bytes(payload))

    @property
    def encoded(self) -> bool:
        """Whether the canonical bytes have been materialized yet."""
        return self._payload is not None

    @property
    def payload(self) -> bytes:
        """Canonical archive bytes (encoded once, then cached)."""
        if self._payload is None:
            self._payload = weights_to_bytes(self._weights)
        return self._payload

    @property
    def weights(self) -> dict[str, np.ndarray]:
        """The weight dict (decoded once, then cached); treat as read-only."""
        if self._weights is None:
            self._weights = weights_from_bytes(self._payload)
        return self._weights

    @property
    def hash(self) -> str:
        """Commitment hash of the canonical bytes (what goes on chain)."""
        if self._hash is None:
            self._hash = keccak_like(self.payload)
        return self._hash

    @property
    def size(self) -> int:
        """Serialized byte size — the paper's 'model size' metric."""
        return len(self.payload)

    @property
    def fingerprint(self) -> str:
        """:func:`weights_fingerprint` of the weight dict (hashed once)."""
        if self._fingerprint is None:
            self._fingerprint = weights_fingerprint(self.weights)
        return self._fingerprint

    def copy_weights(self) -> dict[str, np.ndarray]:
        """Fresh array copies, safe for callers to mutate."""
        return {key: value.copy() for key, value in self.weights.items()}

    def shared_weights(self) -> SharedWeights:
        """The archive's own arrays, read-only, with their fingerprint."""
        return SharedWeights(self.weights, self.fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.size}B" if self.encoded else "unencoded"
        return f"WeightArchive({state})"


WeightsLike = Union[dict, WeightArchive]


def as_archive(weights: WeightsLike) -> WeightArchive:
    """Coerce a weight dict (or pass through an archive) to an archive."""
    if isinstance(weights, WeightArchive):
        return weights
    return WeightArchive.from_weights(weights)


def weights_hash(weights: WeightsLike) -> str:
    """Commitment hash of a weight dict (what goes on chain).

    One-shot convenience: serializes from scratch for a plain dict.  Code
    that also needs the bytes or the size should build a
    :class:`WeightArchive` instead and read all three off it.
    """
    return as_archive(weights).hash


def weights_size_bytes(weights: WeightsLike) -> int:
    """Size of the serialized archive — the paper's 'model size' metric."""
    return as_archive(weights).size
