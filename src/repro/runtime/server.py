"""Coordinator-side RPC dispatcher: the off-chain store served over the wire.

Workers hold no ledger access — the driver does every chain read and
write and hands each task what it read — so the one thing a worker asks
the coordinator for mid-task is weight blobs.  :class:`GatewayServer`
answers those requests against the coordinator's off-chain store, one
``rpc`` frame at a time, by content address: ``offchain_get`` for one
key, ``offchain_fetch`` for a batch.  It owns *dispatch only* — framing
and socket readiness live with the caller (the coordinator's select loop
inline between task results, or a test pumping a socketpair), so the
server stays deterministic and trivially testable.

Errors cross the boundary typed: a missing blob's
:class:`~repro.errors.SerializationError` (or any
:class:`~repro.errors.GatewayError`) is encoded with class name and
message and re-raised identically worker-side.
"""

from __future__ import annotations

from typing import Any

from repro.core.offchain import OffchainStore
from repro.errors import GatewayError, SerializationError, WireProtocolError
from repro.runtime.wire import WireChannel, WireClosedError, encode_error

#: Exception types that cross the wire typed instead of crashing the
#: coordinator: the gateway hierarchy plus the off-chain store's
#: missing-blob error.
_WIRE_SAFE_ERRORS = (GatewayError, SerializationError)


class GatewayServer:
    """Serve the coordinator's off-chain store over frames."""

    def __init__(self, offchain: OffchainStore) -> None:
        self.offchain = offchain

    # -- frame-level entry points ------------------------------------------

    def handle(self, header: dict) -> tuple[dict, tuple[bytes, ...]]:
        """Answer one ``rpc`` frame; never raises for wire-safe errors."""
        try:
            value, out_blobs = self.dispatch(header.get("method", ""), header.get("params", {}))
        except _WIRE_SAFE_ERRORS as exc:
            return {"kind": "rpc-error", "error": encode_error(exc)}, ()
        return {"kind": "rpc-result", "value": value}, out_blobs

    def serve_channel(self, channel: WireChannel) -> None:
        """Blockingly serve one connection until EOF (test harness loop)."""
        while True:
            try:
                header, _blobs, _ = channel.recv()
            except (WireClosedError, OSError):
                return
            if header.get("kind") != "rpc":
                channel.send(
                    {
                        "kind": "rpc-error",
                        "error": encode_error(
                            WireProtocolError(f"server expects rpc frames, got {header.get('kind')!r}")
                        ),
                    }
                )
                continue
            response, out_blobs = self.handle(header)
            channel.send(response, out_blobs)

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, method: str, params: dict) -> tuple[Any, tuple[bytes, ...]]:
        """Execute one RPC; returns (JSON-safe value, response blobs)."""
        if method == "offchain_get":
            return None, (self.offchain.get(params["key"]),)
        if method == "offchain_fetch":
            present = [key for key in params["keys"] if key in self.offchain]
            return present, tuple(self.offchain.get(key) for key in present)
        raise WireProtocolError(f"unknown rpc method {method!r}")
