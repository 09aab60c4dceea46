"""Multiprocess round driver: the DecentralizedFL barrier over worker tasks.

:class:`MultiprocessDecentralizedFL` runs the in-process driver's round
loop unchanged and swaps its :class:`~repro.core.shard.PeerShard` for a
:class:`RemoteShard` — the same methods, dispatched as tasks to the worker
processes that own the peers.  The subclass itself adds only the worker
fleet's lifecycle (launch, task dispatch, teardown) and its reporting.
Everything that makes the simulation a simulation stays here, untouched:
the event engine and its clock, the PoW chain fabric, block propagation,
the round barrier, and the waiting policies.  Workers hold the datasets
and models; their only ledger access is RPC frames this coordinator
serves inline — so every submission still lands on the mempool in
scheduler order, which is what keeps a multiprocess run byte-identical to
the in-process one at the same seed.

Wire discipline of the select loop: each worker has at most one
outstanding task, and a worker mid-task blocks on at most one RPC at a
time — so the coordinator can always serve every readable channel
without buffering, and a ``result`` frame retires the worker's slot.
Worker death (channel EOF, process exit) surfaces as
:class:`~repro.errors.WorkerCrashedError`, a
:class:`~repro.errors.GatewayUnavailableError` subclass, so it enters
the same typed-error path the resilience layer already speaks.
"""

from __future__ import annotations

import selectors
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.chain.transaction import Transaction
from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import PeerConfig
from repro.core.shard import PeerRoundLog, PeerShard
from repro.errors import ConfigError, WireProtocolError, WorkerCrashedError
from repro.runtime.broker import Broker, WorkerHandle
from repro.runtime.server import GatewayServer
from repro.runtime.speccodec import encode_spec
from repro.runtime.wire import WireClosedError, decode_error
from repro.utils.rng import RngFactory


def _merge_numbers(into: dict, extra: dict) -> None:
    """Key-wise numeric accumulation, recursing into nested dicts."""
    for key, value in extra.items():
        if isinstance(value, dict):
            _merge_numbers(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


class RemoteShard:
    """:class:`~repro.core.shard.PeerShard`'s methods, served by the workers.

    Worker ``i`` owns the peers at cohort positions ``i, i+W, i+2W, ...``
    — the rule the workers apply independently in ``init``, taken over
    the *full* roster so it is stable under sampling.  Order-independent
    steps (``train``, ``score``, ``export``) go out as one task per owning
    worker; steps that submit a transaction (``vote``, ``rate``) go out one
    peer at a time, because the driver calls them so.  ``local`` is the
    coordinator's own shard of chain-only peers: it answers what the
    ledger alone can (``view``) and holds the deployed addresses.
    """

    def __init__(self, driver: "MultiprocessDecentralizedFL", local: PeerShard) -> None:
        self.driver = driver
        self.local = local
        self.owner = {
            peer_id: position % driver.num_workers
            for position, peer_id in enumerate(driver.peer_ids)
        }
        self._exports: dict[str, bytes] = {}

    def _grouped(self, op: str, peer_ids: list[str], **params) -> list[tuple]:
        """One ``op`` task per owning worker; the ``(value, blobs)`` replies."""
        groups: dict[int, list[str]] = {}
        for peer_id in peer_ids:
            groups.setdefault(self.owner[peer_id], []).append(peer_id)
        results = self.driver._run_tasks(
            {
                index: {"op": op, "params": {**params, "peers": owned}}
                for index, owned in groups.items()
            }
        )
        return list(results.values())

    def _single(self, op: str, round_id: int, peer_id: str):
        """One ``op`` task to the peer's owner; the reply's value."""
        task = {"op": op, "params": {"round": round_id, "peer": peer_id}}
        index = self.owner[peer_id]
        return self.driver._run_tasks({index: task})[index][0]

    def configure(self, model_store, coordinator, reputation, addresses) -> None:
        self.local.configure(model_store, coordinator, reputation, addresses)
        self.driver._run_tasks(
            {
                handle.index: {
                    "op": "configure",
                    "params": {
                        "model_store": model_store,
                        "coordinator": coordinator,
                        "reputation": reputation,
                        "addresses": addresses,
                    },
                }
                for handle in self.driver.handles
            }
        )

    def train(self, round_id: int, peer_ids: list[str]) -> dict[str, tuple]:
        return {
            entry["peer"]: (Transaction.from_dict(entry["tx"]), float(entry["duration"]))
            for value, _blobs in self._grouped("train", peer_ids, round=round_id)
            for entry in value
        }

    def view(self, round_id: int, peer_id: str) -> list[str]:
        """Who contributed to the view the worker is about to fetch.

        The coordinator-side read mirrors that fetch — same visible
        submissions, filtered to blobs already off-chain — and the round
        barrier only asks a view whether it is empty, so the decoded
        weights never leave the workers.
        """
        id_of = self.local.id_of_address
        return [
            id_of.get(record["author"], record["author"])
            for record in self.local.peers[peer_id].visible_submissions(round_id)
            if record["weights_hash"] in self.local.offchain
        ]

    def score(self, round_id: int, peer_ids: list[str]) -> list[PeerRoundLog]:
        payloads = {
            entry["peer"]: entry
            for value, _blobs in self._grouped("score", peer_ids, round=round_id)
            for entry in value
        }
        return [PeerRoundLog.from_wire(round_id, payloads[peer_id]) for peer_id in peer_ids]

    def vote(self, round_id: int, peer_id: str) -> None:
        self._single("vote", round_id, peer_id)

    def adopt_final(self, round_id: int, peer_id: str) -> PeerRoundLog:
        return PeerRoundLog.from_wire(round_id, self._single("adopt_final", round_id, peer_id))

    def rate(self, round_id: int, peer_id: str) -> None:
        self._single("rate", round_id, peer_id)

    def catch_up(self, fetch_round: int, peer_id: str) -> int:
        # The chain-side heal and head-hash wait already happened
        # coordinator-side; the FedAvg adoption runs where the model lives.
        return int(self._single("catch_up", fetch_round, peer_id))

    def export(self, peer_ids: list[str]) -> list[bytes]:
        """Model bytes from the owning workers while they run; afterwards,
        the ones ``run()`` collected before it shut them down."""
        if self.driver.handles:
            for value, blobs in self._grouped("export", peer_ids):
                self._exports.update(zip(value, blobs))
        missing = [peer_id for peer_id in peer_ids if peer_id not in self._exports]
        if missing:
            raise ConfigError(
                f"{missing[0]}: no exported model (multiprocess exports are "
                "collected when run() completes)"
            )
        return [self._exports[peer_id] for peer_id in peer_ids]


class MultiprocessDecentralizedFL(DecentralizedFL):
    """DecentralizedFL whose cohort's models live in worker processes."""

    def __init__(
        self,
        spec,
        peer_configs: list[PeerConfig],
        config: DecentralizedConfig,
        rng_factory: Optional[RngFactory] = None,
    ) -> None:
        self.spec = spec
        self.num_workers = min(spec.runtime_workers, len(peer_configs))
        self.broker = Broker(self.num_workers)
        self.handles: list[WorkerHandle] = []
        self.server: Optional[GatewayServer] = None
        self._worker_stats: list[dict] = []
        self._channel_totals = {"bytes_sent": 0, "bytes_received": 0}
        self._stamp_epoch = 0
        # No datasets, no model builder: the base class builds chain-only
        # peers that sign and read the ledger for the round barrier, and
        # creates (same recipe, never draws from) the rng streams the
        # workers re-derive.
        super().__init__(
            peer_configs,
            {},
            {},
            model_builder=None,
            config=config,
            rng_factory=rng_factory,
        )
        self.shard = RemoteShard(self, self.shard)

    # -- worker fleet ------------------------------------------------------

    @contextmanager
    def _fleet_guard(self) -> Iterator[None]:
        """Launch the workers if needed; terminate every one of them if the
        guarded block fails — a failure never leaves a worker running."""
        try:
            self._ensure_runtime()
            yield
        except BaseException:
            self.broker.terminate()
            self.handles = []
            raise

    def _ensure_runtime(self) -> None:
        """Launch workers and have them rebuild their peer shards."""
        if self.handles:
            return
        self.server = GatewayServer(
            {peer_id: peer.gateway for peer_id, peer in self.peers.items()},
            self.offchain,
        )
        self.handles = self.broker.launch()
        spec_payload = encode_spec(self.spec)
        owned = self._run_tasks(
            {
                handle.index: {
                    "op": "init",
                    "params": {"spec": spec_payload, "workers": self.num_workers},
                }
                for handle in self.handles
            }
        )
        for index, (peer_ids, _blobs) in owned.items():
            expected = sorted(
                peer_id
                for peer_id, owner in self.shard.owner.items()
                if owner == index and peer_id in self.peers
            )
            if list(peer_ids) != expected:
                raise WireProtocolError(
                    f"worker {index} owns {peer_ids}, coordinator expected {expected}"
                )

    def _run_tasks(self, tasks: dict[int, dict]) -> dict[int, tuple]:
        """Dispatch one task per listed worker; serve RPCs until all reply.

        Returns ``{worker_index: (value, blobs)}``.  A typed error result
        re-raises here; a closed channel or dead process raises
        :class:`WorkerCrashedError`.
        """
        results: dict[int, tuple] = {}
        pending = set(tasks)
        stamp = self._head_stamp()
        selector = selectors.DefaultSelector()
        try:
            for index in sorted(tasks):
                handle = self.handles[index]
                handle.channel.send({"kind": "task", "head": stamp, **tasks[index]})
                selector.register(handle.channel.sock, selectors.EVENT_READ, handle)
            while pending:
                events = selector.select(timeout=1.0)
                if not events:
                    self._check_workers_alive(pending)
                    continue
                for key, _mask in events:
                    handle: WorkerHandle = key.data
                    if handle.index not in pending:
                        continue
                    try:
                        header, blobs, _size = handle.channel.recv()
                    except (WireClosedError, OSError) as exc:
                        raise WorkerCrashedError(
                            f"worker {handle.index} channel closed mid-task "
                            f"(exit code {handle.process.poll()})"
                        ) from exc
                    kind = header.get("kind")
                    if kind == "rpc":
                        assert self.server is not None
                        response, out_blobs = self.server.handle(header, blobs)
                        handle.channel.send(response, out_blobs)
                    elif kind == "result":
                        pending.discard(handle.index)
                        selector.unregister(handle.channel.sock)
                        if "error" in header:
                            raise decode_error(header["error"])
                        results[handle.index] = (header.get("value"), blobs)
                    else:
                        raise WireProtocolError(
                            f"coordinator got unexpected frame kind {kind!r} "
                            f"from worker {handle.index}"
                        )
        finally:
            selector.close()
        return results

    def _head_stamp(self) -> dict:
        """Freshness token pushed with every task frame.

        The event engine only pumps in the coordinator's ``_wait_until``
        — never while workers hold tasks — so a stamp taken at
        dispatch stays valid for the batch's whole lifetime.  It is the
        "pushed new-heads subscription" the batching gateway's contract
        expects of a remote transport: worker-side cache lookups
        validate against it for zero round trips.

        The token is epoch-prefixed so it can never repeat across
        dispatch batches: peers hold *per-node* chain views (gossip
        lag), and a bare head hash from one node could coincide across
        a pump that changed another node's view.  Epoch uniqueness
        bounds cache reuse to one frozen-chain window, which keeps the
        shared signal provably exact for every peer.
        """
        assert self.server is not None
        self._stamp_epoch += 1
        gateway = next(iter(self.server.gateways.values()))
        return {
            "hash": f"{self._stamp_epoch}:{gateway.head_hash()}",
            "now": gateway.now(),
        }

    def _check_workers_alive(self, pending: set) -> None:
        for index in sorted(pending):
            handle = self.handles[index]
            if handle.process.poll() is not None:
                raise WorkerCrashedError(
                    f"worker {index} exited with code {handle.process.returncode} "
                    "while a task was outstanding"
                )

    # -- lifecycle ---------------------------------------------------------

    def deploy_contracts(self) -> None:
        with self._fleet_guard():
            super().deploy_contracts()

    def run(self) -> list[PeerRoundLog]:
        with self._fleet_guard():
            logs = super().run()
            # Collected now, served by the shard after the workers are gone.
            self.shard.export([peer_id for peer_id in self.peer_ids if peer_id in self.peers])
            self._collect_stats()
            self._shutdown()
        return logs

    def _collect_stats(self) -> None:
        # Channel totals are taken before the `stats` task goes out: its
        # reply carries wall-clock floats whose printed length varies from
        # run to run, and every byte counted up to here is deterministic.
        self._channel_totals = {
            "bytes_sent": sum(h.channel.bytes_sent for h in self.handles),
            "bytes_received": sum(h.channel.bytes_received for h in self.handles),
        }
        results = self._run_tasks(
            {handle.index: {"op": "stats", "params": {}} for handle in self.handles}
        )
        self._worker_stats = [
            results[handle.index][0] for handle in self.handles
        ]

    def _shutdown(self) -> None:
        self._run_tasks(
            {handle.index: {"op": "shutdown", "params": {}} for handle in self.handles}
        )
        self.broker.reap()
        self.handles = []

    def crash_worker(self, index: int) -> None:
        """Test hook: make worker ``index`` die mid-protocol.

        The worker ``os._exit``\\ s without a goodbye; the next recv on
        its channel raises, which this method surfaces as the
        :class:`WorkerCrashedError` the resilience path expects.
        """
        with self._fleet_guard():
            handle = self.handles[index]
            handle.channel.send({"kind": "task", "op": "crash", "params": {}})
            try:
                handle.channel.recv()
            except (WireClosedError, OSError) as exc:
                raise WorkerCrashedError(
                    f"worker {index} crashed (exit code {handle.process.wait(timeout=30)})"
                ) from exc
            raise WireProtocolError(f"worker {index} survived a crash task")

    # -- reporting ---------------------------------------------------------

    def gateway_stats(self) -> dict:
        payload = super().gateway_stats()
        if not self._worker_stats:
            return payload
        wire_trips = 0
        wire_seconds = 0.0
        method_seconds: dict = {}
        workers = []
        for stats in self._worker_stats:
            wire = stats["wire"]
            wire_trips += wire["rpc_round_trips"]
            wire_seconds += stats["wire_seconds"]
            _merge_numbers(method_seconds, stats["wire_method_seconds"])
            # The ledger-side transport aggregate gains the wire counters
            # its in-process layers cannot see (theirs are all zero).
            for field in ("wire_bytes_sent", "wire_bytes_received", "rpc_round_trips"):
                payload["transport"][field] += wire[field]
            workers.append(
                {
                    "worker": stats["worker"],
                    "peers": stats["peers"],
                    "requested": stats["requested"],
                    "wire": wire,
                    "channel": stats["channel"],
                }
            )
        payload["wire"] = {
            "workers": self.num_workers,
            **self._channel_totals,
            "rpc_round_trips": wire_trips,
            "seconds": wire_seconds,
            "method_seconds": method_seconds,
        }
        payload["worker_stats"] = workers
        payload["runtime"] = "multiprocess"
        return payload
