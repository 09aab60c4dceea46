"""Worker-side off-chain mirror: blobs pulled by content address.

A worker holds no ledger access at all — the driver reads the chain and
hands each task what it read.  What a task still needs from the
coordinator is weight blobs, and :class:`RemoteOffchain` fetches them:
it mirrors the :class:`~repro.core.offchain.OffchainStore` surface the
compute half uses, pulls the blobs its local content-addressed mirror
lacks over the task channel (``offchain_fetch`` / ``offchain_get``,
served by :class:`~repro.runtime.server.GatewayServer`), and serves
everything else locally.  Weight payloads cross the wire as codec-v2
blobs, at most once per worker; what a worker writes stays in its
mirror, and the task result carries it back.

Wire telemetry (bytes, round trips, per-method latency) lands in the
standard :class:`~repro.chain.gateway.GatewayStats` wire fields; the
latency reads use ``time.perf_counter`` and are allowlisted by the
wall-clock lint.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence

from repro.chain.gateway import GatewayStats
from repro.core.offchain import OffchainStore
from repro.errors import WireProtocolError
from repro.runtime.wire import WireChannel, decode_error
from repro.utils.hashing import keccak_like


def rpc(
    channel: WireChannel,
    method: str,
    params: Optional[dict] = None,
    stats: Optional[GatewayStats] = None,
) -> tuple[Any, tuple[bytes, ...]]:
    """One request/response round trip over ``channel``.

    The channel is strictly half-duplex per direction while an RPC is in
    flight: the caller sends one ``rpc`` frame and reads exactly one
    response frame.  Typed errors the server encoded are re-raised here
    as the original :class:`~repro.errors.GatewayError` subclass.
    """
    header = {"kind": "rpc", "method": method, "params": params or {}}
    started = time.perf_counter()
    sent = channel.send(header)
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


class RemoteOffchain:
    """Off-chain blob store proxy with a content-addressed local mirror.

    Keys are content hashes, so a blob pulled or written once is served
    locally forever after — the mirror inherits the real store's decode
    cache and integrity checks by *being* a real store.
    """

    def __init__(self, channel: WireChannel, stats: Optional[GatewayStats] = None) -> None:
        self.channel = channel
        self.stats = stats if stats is not None else GatewayStats()
        self._mirror = OffchainStore()

    def put_archive(self, archive: Any) -> str:
        """Keep an encoded weight archive in the mirror (a result frame
        carries it to the coordinator)."""
        return self._mirror.put_archive(archive)

    def _pull(self, method: str, keys: Sequence[str]) -> None:
        """Mirror the blobs of ``keys`` the mirror lacks, in one RPC.

        The coordinator only hands a task keys its own store holds, and
        the reply comes from another process, so it is checked: exactly
        one blob per missing key, in request order, each hashing to its
        key.  Anything else is a :class:`WireProtocolError`, and nothing of
        the reply is kept.
        """
        missing = [key for key in dict.fromkeys(keys) if key not in self._mirror]
        if not missing:
            return
        params = {"key": missing[0]} if method == "offchain_get" else {"keys": missing}
        _, blobs = rpc(self.channel, method, params, stats=self.stats)
        if len(blobs) != len(missing):
            raise WireProtocolError(
                f"{method} returned {len(blobs)} blobs, expected {len(missing)}"
            )
        for key, blob in zip(missing, blobs):
            got = keccak_like(blob)
            if got != key:
                raise WireProtocolError(
                    f"offchain blob mismatch: asked {key[:16]}… got {got[:16]}…"
                )
        for blob in blobs:
            self._mirror.put(blob)

    def get(self, key: str) -> bytes:
        self._pull("offchain_get", [key])
        return self._mirror.get(key)

    def get_weights(self, key: str) -> dict:
        self._pull("offchain_get", [key])
        return self._mirror.get_weights(key)

    def fetch_available(self, keys: Sequence[str]) -> dict[str, dict]:
        """Batch-fetch decoded weights for ``keys``: the ones the mirror
        lacks in one ``offchain_fetch`` RPC, the rest locally.  Matches
        ``OffchainStore.fetch_available``'s shape — deduplicated, in
        first-seen key order — for keys the coordinator holds."""
        self._pull("offchain_fetch", keys)
        return {
            key: self._mirror.get_archive(key).shared_weights() for key in dict.fromkeys(keys)
        }
