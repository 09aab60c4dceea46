"""Wire codec and framing for the out-of-process runtime.

One frame = a 4-byte big-endian header length, a canonical-JSON header
(:func:`~repro.utils.serialization.canonical_dumps` — the same sorted-key
codec transactions hash over, so floats and bytes round-trip exactly), and
zero or more raw binary blobs whose lengths the header declares under
``"blobs"``.  Small byte fields (transaction data, hashes) ride the JSON
as tagged base64; *weight payloads* always travel as codec-v2 blobs so a
50-peer round never base64-inflates megabytes of float32.

The module also owns the cross-process vocabulary the golden-file tests
pin: the **typed-error registry** — every
:class:`~repro.errors.GatewayError` subtype crosses the boundary as
``{"type": <class name>, "message"}`` and is re-raised client-side as the
same class with the same message.

Framing violations raise :class:`~repro.errors.WireProtocolError`; a peer
hanging up mid-frame raises :class:`WireClosedError` so the coordinator
can surface it as a typed :class:`~repro.errors.WorkerCrashedError`.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional

from repro.errors import (
    CallRevertedError,
    ConfigError,
    GatewayError,
    GatewayTimeoutError,
    GatewayUnavailableError,
    NetworkError,
    RoundError,
    SerializationError,
    TransactionRejectedError,
    TransientGatewayError,
    UnknownContractError,
    UnknownMethodError,
    WireProtocolError,
    WorkerCrashedError,
)
from repro.utils.serialization import canonical_dumps, canonical_loads

#: Sanity ceiling on a single frame header (1 MiB) and blob (1 GiB); a
#: larger declared length means corruption or version skew, not data.
MAX_HEADER_BYTES = 1 << 20
MAX_BLOB_BYTES = 1 << 30

_LEN = struct.Struct(">I")


class WireClosedError(ConnectionError):
    """The peer closed the socket (EOF) before a complete frame arrived."""


# ---------------------------------------------------------------------------
# Frame codec (pure bytes <-> header/blobs; no sockets)
# ---------------------------------------------------------------------------


def encode_frame(header: dict, blobs: tuple[bytes, ...] = ()) -> bytes:
    """Serialize one frame to bytes.

    ``header`` must be canonical-JSON encodable; ``blobs`` are appended
    raw and their lengths recorded in the header's ``"blobs"`` key.
    """
    if "blobs" in header:
        raise WireProtocolError("frame header key 'blobs' is reserved for the codec")
    payload = dict(header)
    payload["blobs"] = [len(blob) for blob in blobs]
    head = canonical_dumps(payload)
    if len(head) > MAX_HEADER_BYTES:
        raise WireProtocolError(f"frame header too large ({len(head)} bytes)")
    return b"".join((_LEN.pack(len(head)), head, *blobs))


def decode_frame(data: bytes) -> tuple[dict, tuple[bytes, ...]]:
    """Inverse of :func:`encode_frame`; validates every declared length."""
    if len(data) < _LEN.size:
        raise WireProtocolError("truncated frame: missing length prefix")
    (head_len,) = _LEN.unpack_from(data)
    if head_len > MAX_HEADER_BYTES:
        raise WireProtocolError(f"declared header length {head_len} exceeds limit")
    offset = _LEN.size
    if len(data) < offset + head_len:
        raise WireProtocolError("truncated frame: incomplete header")
    header, blobs, offset = _decode_header(data[offset : offset + head_len]), [], offset + head_len
    for length in header.pop("blobs"):
        if len(data) < offset + length:
            raise WireProtocolError("truncated frame: incomplete blob")
        blobs.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise WireProtocolError(f"frame has {len(data) - offset} undeclared trailing bytes")
    return header, tuple(blobs)


def _decode_header(raw: bytes) -> dict:
    try:
        header = canonical_loads(raw)
    except SerializationError as exc:
        raise WireProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(header, dict) or "kind" not in header:
        raise WireProtocolError("frame header must be an object with a 'kind'")
    lengths = header.get("blobs")
    if not isinstance(lengths, list) or not all(
        type(n) is int and 0 <= n <= MAX_BLOB_BYTES for n in lengths
    ):
        raise WireProtocolError("frame header declares invalid blob lengths")
    return header


# ---------------------------------------------------------------------------
# Socket channel
# ---------------------------------------------------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise WireClosedError(f"connection closed with {remaining} bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class WireChannel:
    """One framed, full-duplex connection with byte accounting.

    The worker and coordinator each hold one channel per connection; all
    RPC and task traffic for that worker flows through it, so the byte
    counters are the true wire volume (tasks, reads, and weight blobs).
    """

    def __init__(self, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            # Not a TCP socket (e.g. a Unix socketpair in tests) — the
            # option only matters for loopback TCP latency anyway.
            pass
        self.sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, header: dict, blobs: tuple[bytes, ...] = ()) -> int:
        """Send one frame; returns its size in bytes."""
        frame = encode_frame(header, blobs)
        self.sock.sendall(frame)
        self.bytes_sent += len(frame)
        return len(frame)

    def recv(self) -> tuple[dict, tuple[bytes, ...], int]:
        """Receive one frame; returns (header, blobs, frame size)."""
        prefix = _recv_exact(self.sock, _LEN.size)
        (head_len,) = _LEN.unpack(prefix)
        if head_len > MAX_HEADER_BYTES:
            raise WireProtocolError(f"declared header length {head_len} exceeds limit")
        header = _decode_header(_recv_exact(self.sock, head_len))
        blobs = tuple(_recv_exact(self.sock, length) for length in header.pop("blobs"))
        size = _LEN.size + head_len + sum(len(blob) for blob in blobs)
        self.bytes_received += size
        return header, blobs, size

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Typed-error registry
# ---------------------------------------------------------------------------

#: Every error class allowed to cross the wire, by class name.  The golden
#: wire-format tests iterate this registry, so adding an entry (or a new
#: GatewayError subtype) without regenerating the fixtures fails loudly.
WIRE_ERROR_TYPES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        GatewayError,
        UnknownContractError,
        UnknownMethodError,
        CallRevertedError,
        TransactionRejectedError,
        GatewayTimeoutError,
        TransientGatewayError,
        GatewayUnavailableError,
        WorkerCrashedError,
        WireProtocolError,
        SerializationError,
        NetworkError,
        RoundError,
        ConfigError,
    )
}


def encode_error(exc: Exception) -> dict:
    """Encode an exception for the wire, preserving type and message."""
    name = type(exc).__name__
    if name not in WIRE_ERROR_TYPES:
        name = "GatewayError"
    return {"type": name, "message": str(exc)}


def decode_error(payload: dict) -> Exception:
    """Rebuild the typed exception an :func:`encode_error` frame carries.

    Unknown type names degrade to a plain :class:`GatewayError` that keeps
    the original name in the message — version skew stays diagnosable.
    """
    name = payload.get("type", "")
    message = payload.get("message", "")
    cls = WIRE_ERROR_TYPES.get(name)
    if cls is None:
        return GatewayError(f"{name or 'unknown remote error'}: {message}")
    return cls(message)


def connect(host: str, port: int, timeout: Optional[float] = None) -> WireChannel:
    """Dial the coordinator and wrap the socket in a channel."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return WireChannel(sock)
