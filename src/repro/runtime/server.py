"""Coordinator-side RPC dispatcher: the ledger served over the wire.

:class:`GatewayServer` wraps the cohort's per-peer in-process gateways
(node + simulator underneath) and the shared off-chain store, and answers
one RPC frame at a time.  It owns *dispatch only* — framing and socket
readiness live with the caller (the coordinator's select loop inline
between task results, or a test pumping a socketpair), so the server
stays deterministic and trivially testable.

Every RPC names the peer it acts as; the server routes it to that peer's
*innermost* gateway layer, the same object the coordinator's own round
driver reads through.  Errors cross the boundary typed: any
:class:`~repro.errors.GatewayError` (or off-chain
:class:`~repro.errors.SerializationError` / p2p
:class:`~repro.errors.NetworkError`) is encoded with class name and
message and re-raised identically worker-side.

There is no ``wait_for`` RPC: waits run on the coordinator's event engine
(see :meth:`repro.runtime.gateway.RemoteGateway.wait_for`).
"""

from __future__ import annotations

from typing import Any

from repro.chain.gateway import CallRequest, ChainGateway, gateway_layers
from repro.chain.transaction import Transaction
from repro.core.offchain import OffchainStore
from repro.errors import (
    GatewayError,
    NetworkError,
    SerializationError,
    WireProtocolError,
)
from repro.runtime.wire import WireChannel, encode_error

#: Exception types that cross the wire typed instead of crashing the
#: coordinator: the gateway hierarchy plus the off-chain store's missing-
#: blob error and the p2p network's error.
_WIRE_SAFE_ERRORS = (GatewayError, SerializationError, NetworkError)


class GatewayServer:
    """Serve a cohort's ledger gateways and off-chain store over frames."""

    def __init__(
        self, gateways: dict[str, ChainGateway], offchain: OffchainStore
    ) -> None:
        # Route to the innermost layer: worker-side decorators (batching,
        # resilience) already ran client-side; re-entering a coordinator-
        # side decorator would double-count and double-cache.
        self.gateways = {
            peer_id: gateway_layers(gateway)[-1] for peer_id, gateway in gateways.items()
        }
        self.offchain = offchain

    # -- frame-level entry points ------------------------------------------

    def handle(self, header: dict, blobs: tuple[bytes, ...]) -> tuple[dict, tuple[bytes, ...]]:
        """Answer one ``rpc`` frame; never raises for wire-safe errors."""
        try:
            value, out_blobs = self.dispatch(
                header.get("method", ""), header.get("peer"), header.get("params", {}), blobs
            )
        except _WIRE_SAFE_ERRORS as exc:
            return {"kind": "rpc-error", "error": encode_error(exc)}, ()
        return {"kind": "rpc-result", "value": value}, out_blobs

    def serve_channel(self, channel: WireChannel) -> None:
        """Blockingly serve one connection until EOF (test harness loop)."""
        from repro.runtime.wire import WireClosedError

        while True:
            try:
                header, blobs, _ = channel.recv()
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
            response, out_blobs = self.handle(header, blobs)
            channel.send(response, out_blobs)

    # -- dispatch ----------------------------------------------------------

    def _gateway(self, peer: Any) -> ChainGateway:
        gateway = self.gateways.get(peer)
        if gateway is None:
            raise WireProtocolError(f"rpc names unknown peer {peer!r}")
        return gateway

    def dispatch(
        self, method: str, peer: Any, params: dict, blobs: tuple[bytes, ...]
    ) -> tuple[Any, tuple[bytes, ...]]:
        """Execute one RPC; returns (JSON-safe value, response blobs)."""
        if method == "ping":
            return "pong", ()
        if method.startswith("offchain_"):
            return self._dispatch_offchain(method, params, blobs)

        gateway = self._gateway(peer)
        if method == "call":
            return gateway.call(params["contract"], params["method"], **params["args"]), ()
        if method == "batch_call":
            requests = [
                CallRequest(entry["contract"], entry["method"], entry["args"])
                for entry in params["requests"]
            ]
            return gateway.batch_call(requests), ()
        if method == "submit":
            return gateway.submit(Transaction.from_dict(params["tx"])), ()
        if method == "height":
            return gateway.height(), ()
        if method == "head_hash":
            return gateway.head_hash(), ()
        if method == "observe_head":
            return {"head": gateway.head_hash(), "now": gateway.now()}, ()
        if method == "has_contract":
            return gateway.has_contract(params["address"]), ()
        if method == "get_logs":
            entries = gateway.get_logs(
                address=params.get("address"),
                topic=params.get("topic"),
                from_block=params.get("from_block", 0),
                to_block=params.get("to_block"),
            )
            return [
                {"address": e.address, "topic": e.topic, "payload": e.payload}
                for e in entries
            ], ()
        if method == "next_nonce":
            return gateway.next_nonce(params["address"]), ()
        if method == "now":
            return gateway.now(), ()
        raise WireProtocolError(f"unknown rpc method {method!r}")

    def _dispatch_offchain(
        self, method: str, params: dict, blobs: tuple[bytes, ...]
    ) -> tuple[Any, tuple[bytes, ...]]:
        if method == "offchain_put":
            if len(blobs) != 1:
                raise WireProtocolError("offchain_put expects exactly one blob")
            return self.offchain.put(blobs[0]), ()
        if method == "offchain_get":
            return None, (self.offchain.get(params["key"]),)
        if method == "offchain_contains":
            return params["key"] in self.offchain, ()
        if method == "offchain_fetch":
            present = [key for key in params["keys"] if key in self.offchain]
            return present, tuple(self.offchain.get(key) for key in present)
        raise WireProtocolError(f"unknown rpc method {method!r}")
