"""Worker-side remote gateway and off-chain mirror.

:class:`RemoteGateway` implements the :class:`~repro.chain.gateway.ChainGateway`
protocol over a :class:`~repro.runtime.wire.WireChannel`: every method is
one RPC frame to the coordinator's :class:`~repro.runtime.server.GatewayServer`,
which routes it into the peer's own in-process gateway.  It stacks under
the existing decorators exactly like the in-process backend — a worker
running ``BatchingGateway(RemoteGateway(...))`` turns the head-keyed read
cache into a real latency shield across the process boundary.

:class:`RemoteOffchain` mirrors the :class:`~repro.core.offchain.OffchainStore`
surface the FL layer uses.  Weight payloads cross the wire exactly once
in each direction as codec-v2 blobs and are decoded/cached in a local
store, so repeated reads of the same commitment never re-transfer bytes.

Wire telemetry (bytes, round trips, per-method latency) lands in the
standard :class:`~repro.chain.gateway.GatewayStats` wire fields; the
latency reads use ``time.perf_counter`` and are allowlisted by the
wall-clock lint.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional, Sequence

from repro.chain.crypto import Address
from repro.chain.gateway import CallRequest, GatewayStats
from repro.chain.transaction import LogEntry, Transaction
from repro.core.offchain import OffchainStore
from repro.errors import WireProtocolError
from repro.runtime.wire import WireChannel, decode_error


def rpc(
    channel: WireChannel,
    method: str,
    params: Optional[dict] = None,
    blobs: tuple[bytes, ...] = (),
    peer: Optional[str] = None,
    stats: Optional[GatewayStats] = None,
) -> tuple[Any, tuple[bytes, ...]]:
    """One request/response round trip over ``channel``.

    The channel is strictly half-duplex per direction while an RPC is in
    flight: the caller sends one ``rpc`` frame and reads exactly one
    response frame.  Typed errors the server encoded are re-raised here
    as the original :class:`~repro.errors.GatewayError` subclass.
    """
    header = {"kind": "rpc", "method": method, "params": params or {}}
    if peer is not None:
        header["peer"] = peer
    started = time.perf_counter()
    sent = channel.send(header, blobs)
    response, out_blobs, received = channel.recv()
    elapsed = time.perf_counter() - started
    if stats is not None:
        stats.rpc_round_trips += 1
        stats.wire_bytes_sent += sent
        stats.wire_bytes_received += received
        stats.wire_seconds += elapsed
        stats.wire_method_seconds[method] = (
            stats.wire_method_seconds.get(method, 0.0) + elapsed
        )
    kind = response.get("kind")
    if kind == "rpc-error":
        raise decode_error(response.get("error", {}))
    if kind != "rpc-result":
        raise WireProtocolError(f"expected an rpc response frame, got {kind!r}")
    return response.get("value"), out_blobs


class HeadSignal:
    """Latest freshness token the coordinator pushed, shared worker-wide.

    The coordinator stamps every task frame with ``(token, clock)``; the
    chain can only advance while the coordinator's event engine pumps,
    and it never pumps while a worker holds a task (workers cannot wait:
    :meth:`RemoteGateway.wait_for` refuses), so the token identifies the
    task's frozen-chain window exactly, for the whole task.  This is the
    "pushed new-heads subscription" the batching gateway's contract
    expects of a remote transport: serving ``observe_head`` from it makes
    a cache validation cost zero round trips instead of one.

    The token is an *opaque window id* (epoch-prefixed head hash), not a
    verbatim head hash: peers hold per-node chain views, so no single
    node's hash could stand in for all of them across windows.  One
    instance per worker, shared by every peer's transport.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[tuple[str, float]] = None


class RemoteGateway:
    """:class:`ChainGateway` backend that reaches the ledger over the wire.

    One instance per peer per worker; all instances in a worker share the
    worker's single coordinator connection.  Reads and submits mirror
    the in-process gateway's semantics exactly — the server routes each
    RPC into the same gateway object an in-process run would call — so
    results are byte-identical and only the transport cost differs.
    """

    def __init__(
        self,
        channel: WireChannel,
        peer_id: str,
        head_signal: Optional[HeadSignal] = None,
    ) -> None:
        self.channel = channel
        self.peer_id = peer_id
        self.head_signal = head_signal
        self.stats = GatewayStats()

    def _rpc(
        self, method: str, params: Optional[dict] = None, blobs: tuple[bytes, ...] = ()
    ) -> tuple[Any, tuple[bytes, ...]]:
        return rpc(
            self.channel, method, params, blobs, peer=self.peer_id, stats=self.stats
        )

    # -- reads -------------------------------------------------------------

    def call(self, contract: Address, method: str, **args: Any) -> Any:
        self.stats.calls += 1
        value, _ = self._rpc("call", {"contract": contract, "method": method, "args": args})
        return value

    def batch_call(self, requests: Sequence[CallRequest]) -> list[Any]:
        self.stats.batch_calls += 1
        self.stats.batched_reads += len(requests)
        value, _ = self._rpc(
            "batch_call",
            {
                "requests": [
                    {"contract": r.contract, "method": r.method, "args": dict(r.args)}
                    for r in requests
                ]
            },
        )
        return list(value)

    def height(self) -> int:
        self.stats.height_reads += 1
        value, _ = self._rpc("height")
        return int(value)

    def head_hash(self) -> str:
        self.stats.head_checks += 1
        value, _ = self._rpc("head_hash")
        return str(value)

    def observe_head(self) -> tuple[str, float]:
        """Freshness token and clock — pushed signal first, RPC else.

        The pushed :class:`HeadSignal` is exact whenever set (the chain
        is frozen for the whole task the coordinator stamped), so
        batching lookups normally pay no wire cost here; the RPC is the
        cold-start fallback and its result (this peer's real head hash,
        an equally valid window id) re-primes the signal.
        """
        signal = self.head_signal
        if signal is not None and signal.value is not None:
            return signal.value
        value, _ = self._rpc("observe_head")
        observed = (str(value["head"]), float(value["now"]))
        if signal is not None:
            signal.value = observed
        return observed

    def has_contract(self, address: Address) -> bool:
        self.stats.contract_checks += 1
        value, _ = self._rpc("has_contract", {"address": address})
        return bool(value)

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        self.stats.log_queries += 1
        value, _ = self._rpc(
            "get_logs",
            {
                "address": address,
                "topic": topic,
                "from_block": from_block,
                "to_block": to_block,
            },
        )
        return [
            LogEntry(address=entry["address"], topic=entry["topic"], payload=entry["payload"])
            for entry in value
        ]

    def next_nonce(self, address: Address) -> int:
        self.stats.nonce_reads += 1
        value, _ = self._rpc("next_nonce", {"address": address})
        return int(value)

    # -- writes ------------------------------------------------------------

    def submit(self, tx: Transaction) -> str:
        self.stats.submits += 1
        value, _ = self._rpc("submit", {"tx": tx.to_dict()})
        return str(value)

    # -- clock / waits -----------------------------------------------------

    def now(self) -> float:
        value, _ = self._rpc("now")
        return float(value)

    def wait_for(
        self,
        predicate: Callable[[], bool],
        what: str,
        deadline: Optional[float] = None,
    ) -> float:
        """Always raises :class:`~repro.errors.WireProtocolError`.

        Waits run on the coordinator's event engine, between tasks; a
        worker pumping it mid-task would move the chain under the head
        stamp its siblings still hold.  Nothing is sent.
        """
        raise WireProtocolError("waits run on the coordinator's event engine")


class RemoteOffchain:
    """Off-chain blob store proxy with a content-addressed local mirror.

    Keys are content hashes, so a blob fetched or pushed once is served
    locally forever after — the mirror inherits the real store's decode
    cache and integrity checks by *being* a real store.
    """

    def __init__(self, channel: WireChannel, stats: Optional[GatewayStats] = None) -> None:
        self.channel = channel
        self.stats = stats if stats is not None else GatewayStats()
        self._mirror = OffchainStore()

    def _rpc(
        self, method: str, params: Optional[dict] = None, blobs: tuple[bytes, ...] = ()
    ) -> tuple[Any, tuple[bytes, ...]]:
        return rpc(self.channel, method, params, blobs, stats=self.stats)

    def __contains__(self, key: str) -> bool:
        if key in self._mirror:
            return True
        value, _ = self._rpc("offchain_contains", {"key": key})
        return bool(value)

    def put(self, payload: bytes) -> str:
        """Store a raw blob locally and push it to the coordinator."""
        key = self._mirror.put(payload)
        value, _ = self._rpc("offchain_put", blobs=(payload,))
        if value != key:
            raise WireProtocolError(
                f"offchain key mismatch: local {key[:16]}… vs remote {str(value)[:16]}…"
            )
        return key

    def put_archive(self, archive: Any) -> str:
        """Commit an encoded weight archive (local mirror + wire push)."""
        key = self._mirror.put_archive(archive)
        value, _ = self._rpc("offchain_put", blobs=(archive.payload,))
        if value != key:
            raise WireProtocolError(
                f"offchain key mismatch: local {key[:16]}… vs remote {str(value)[:16]}…"
            )
        return key

    def put_weights(self, weights: dict) -> str:
        from repro.nn.serialize import as_archive

        return self.put_archive(as_archive(weights))

    def _pull(self, key: str) -> None:
        """Mirror ``key``'s blob from the coordinator unless already held.

        The reply comes from another process, so it is checked like
        :meth:`put_archive` checks the key the server returns: exactly
        one blob, whose content address is ``key``.
        """
        if key in self._mirror:
            return
        _, blobs = self._rpc("offchain_get", {"key": key})
        if len(blobs) != 1:
            raise WireProtocolError(f"offchain_get returned {len(blobs)} blobs, expected 1")
        got = self._mirror.put(blobs[0])
        if got != key:
            raise WireProtocolError(
                f"offchain blob mismatch: asked {key[:16]}… got {got[:16]}…"
            )

    def get(self, key: str) -> bytes:
        self._pull(key)
        return self._mirror.get(key)

    def get_weights(self, key: str) -> dict:
        self._pull(key)
        return self._mirror.get_weights(key)

    def fetch_available(self, keys: Sequence[str]) -> dict[str, dict]:
        """Batch-fetch decoded weights for the keys present upstream.

        Missing blobs are pulled in one RPC; everything else is served
        from the mirror.  Matches ``OffchainStore.fetch_available``:
        deduplicated, present-only, in first-seen key order.
        """
        missing = []
        seen = set()
        for key in keys:
            if key not in seen and key not in self._mirror:
                missing.append(key)
            seen.add(key)
        if missing:
            value, blobs = self._rpc("offchain_fetch", {"keys": missing})
            for blob in blobs:
                self._mirror.put(blob)
            del value  # ordered key list; presence is re-derived from the mirror
        found: dict[str, dict] = {}
        for key in keys:
            if key not in found and key in self._mirror:
                found[key] = self._mirror.get_archive(key).shared_weights()
        return found
