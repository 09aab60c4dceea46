"""Multiprocess round driver: the DecentralizedFL barrier over worker tasks.

:class:`MultiprocessDecentralizedFL` subclasses the in-process driver and
replaces exactly its *local-compute* seams (``_train_cohort``,
``_fetch_view``, ``_personalized_round``, ``_global_vote_round``,
``_rate_round``, ``export_model_bytes``) with task dispatch to worker
processes.  Everything that makes the simulation a simulation stays here,
untouched: the event engine and its clock, the PoW chain fabric, block
propagation, the round barrier, and the waiting policies.  Workers hold
the datasets and models; their only ledger access is RPC frames this
coordinator serves inline — so every submission still lands on the
mempool in scheduler order, which is what keeps a multiprocess run
byte-identical to the in-process one at the same seed.

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
from dataclasses import dataclass
from typing import Optional

from repro.chain.crypto import KeyPair
from repro.chain.gateway import ChainGateway
from repro.chain.transaction import Transaction
from repro.core.decentralized import (
    DecentralizedConfig,
    DecentralizedFL,
    PeerRoundLog,
)
from repro.core.peer import FullPeer, PeerConfig
from repro.errors import ConfigError, WireProtocolError, WorkerCrashedError
from repro.runtime.broker import Broker, WorkerHandle
from repro.runtime.server import GatewayServer
from repro.runtime.speccodec import encode_spec
from repro.runtime.wire import WireClosedError, decode_error
from repro.utils.rng import RngFactory


@dataclass(frozen=True)
class _UpdateStub:
    """Coordinator-side stand-in for a worker-held :class:`ModelUpdate`.

    The round barrier only ever asks a view two questions — is it empty,
    and which peers contributed — so the stub carries the contributor id
    and nothing else; the decoded weights never leave the workers.
    """

    client_id: str


def _merge_numbers(into: dict, extra: dict) -> None:
    """Key-wise numeric accumulation, recursing into nested dicts."""
    for key, value in extra.items():
        if isinstance(value, dict):
            _merge_numbers(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


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
        self._exports: dict[str, bytes] = {}
        self._worker_stats: list[dict] = []
        self._stamp_epoch = 0
        super().__init__(
            peer_configs,
            {},
            {},
            model_builder=None,
            config=config,
            rng_factory=rng_factory,
        )
        # Worker i owns peers at cohort positions i, i+W, i+2W, ... — the
        # same assignment rule the workers apply independently in init.
        # Positions are taken over the *full* roster (stable under
        # sampling); workers simply skip identities the participation
        # plan never materializes, mirroring the base-class loop.
        self._owner = {
            peer_id: position % self.num_workers
            for position, peer_id in enumerate(self.peer_ids)
        }

    # -- construction seams ------------------------------------------------

    def _build_peer(
        self,
        pc: PeerConfig,
        keypair: KeyPair,
        gateway: ChainGateway,
        train_sets,
        test_sets,
        model_builder,
    ) -> FullPeer:
        # Chain-only: signs and reads the ledger for the round barrier;
        # the model lives with the owning worker.  The peer rng stream is
        # created (same recipe as in-process) but never drawn from here —
        # the worker re-derives and draws the identical stream.
        return FullPeer(
            config=pc,
            keypair=keypair,
            gateway=gateway,
            offchain=self.offchain,
            train_set=None,
            test_set=None,
            model_builder=None,
            rng=self.rngs.get("peer", pc.peer_id),
        )

    def _build_engines(self) -> dict:
        return {}

    # -- worker fleet ------------------------------------------------------

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
                for peer_id, owner in self._owner.items()
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

    def _run_task(self, index: int, op: str, params: dict) -> tuple:
        return self._run_tasks({index: {"op": op, "params": params}})[index]

    def _head_stamp(self) -> dict:
        """Freshness token pushed with every task frame.

        The event engine only pumps in ``_wait_until``/``wait_for`` —
        never while workers hold parallel tasks — so a stamp taken at
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

    def _by_owner(self, peer_ids: list[str]) -> dict[int, list[str]]:
        groups: dict[int, list[str]] = {}
        for peer_id in peer_ids:
            groups.setdefault(self._owner[peer_id], []).append(peer_id)
        return groups

    # -- lifecycle ---------------------------------------------------------

    def deploy_contracts(self) -> None:
        self._ensure_runtime()
        super().deploy_contracts()
        first = self.peers[self.peer_ids[0]]
        self._run_tasks(
            {
                handle.index: {
                    "op": "configure",
                    "params": {
                        "model_store": first.model_store_address,
                        "coordinator": first.coordinator_address,
                        "reputation": self.reputation_address,
                        "addresses": dict(self.addresses),
                    },
                }
                for handle in self.handles
            }
        )

    def run(self) -> list[PeerRoundLog]:
        self._ensure_runtime()
        try:
            logs = super().run()
            self._collect_exports()
            self._collect_stats()
        except BaseException:
            self.broker.terminate()
            self.handles = []
            raise
        self._shutdown()
        return logs

    def _collect_exports(self) -> None:
        groups = self._by_owner(
            [peer_id for peer_id in self.peer_ids if peer_id in self.peers]
        )
        results = self._run_tasks(
            {
                index: {"op": "export", "params": {"peers": peer_ids}}
                for index, peer_ids in groups.items()
            }
        )
        for value, blobs in results.values():
            for peer_id, payload in zip(value, blobs):
                self._exports[peer_id] = payload

    def _collect_stats(self) -> None:
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
        self._ensure_runtime()
        handle = self.handles[index]
        handle.channel.send({"kind": "task", "op": "crash", "params": {}})
        try:
            handle.channel.recv()
        except (WireClosedError, OSError) as exc:
            raise WorkerCrashedError(
                f"worker {index} crashed (exit code {handle.process.wait(timeout=30)})"
            ) from exc
        raise WireProtocolError(f"worker {index} survived a crash task")

    # -- round seams -------------------------------------------------------

    def _train_cohort(self, live: list[str], round_id: int) -> dict[str, tuple]:
        results = self._run_tasks(
            {
                index: {"op": "train", "params": {"round": round_id, "peers": peer_ids}}
                for index, peer_ids in self._by_owner(live).items()
            }
        )
        trained: dict[str, tuple] = {}
        for value, _blobs in results.values():
            for entry in value:
                trained[entry["peer"]] = (
                    Transaction.from_dict(entry["tx"]),
                    float(entry["duration"]),
                )
        return trained

    def _fetch_view(self, peer_id: str, round_id: int) -> list[_UpdateStub]:
        # The coordinator-side read mirrors the worker's upcoming fetch:
        # same visible submissions, filtered to blobs already off-chain.
        peer = self.peers[peer_id]
        return [
            _UpdateStub(self.id_of_address.get(record["author"], record["author"]))
            for record in peer.visible_submissions(round_id)
            if record["weights_hash"] in self.offchain
        ]

    def _personalized_round(
        self, round_id: int, survivors: list[str], updates_by_view: dict
    ) -> list[PeerRoundLog]:
        results = self._run_tasks(
            {
                index: {"op": "score", "params": {"round": round_id, "peers": peer_ids}}
                for index, peer_ids in self._by_owner(survivors).items()
            }
        )
        payloads: dict[str, dict] = {}
        for value, _blobs in results.values():
            for entry in value:
                payloads[entry["peer"]] = entry
        return [
            self._log_from_payload(round_id, payloads[peer_id])
            for peer_id in survivors
        ]

    @staticmethod
    def _log_from_payload(round_id: int, entry: dict) -> PeerRoundLog:
        log = PeerRoundLog(peer_id=entry["peer"], round_id=round_id)
        for label, accuracy in entry["table"]:
            log.combination_accuracy[label] = accuracy
        log.chosen_combination = tuple(entry["chosen"])
        log.chosen_accuracy = entry["accuracy"]
        log.models_used = entry["models_used"]
        log.updates_visible = entry["updates_visible"]
        return log

    def _global_vote_round(
        self, round_id: int, updates_by_view: dict
    ) -> list[PeerRoundLog]:
        voters = [peer_id for peer_id in self.peer_ids if peer_id in updates_by_view]
        # Votes go out one voter at a time, in cohort order: each vote
        # submits a transaction through the served gateway, and mempool
        # arrival order must match the in-process loop exactly.
        for peer_id in voters:
            self._run_task(
                self._owner[peer_id], "vote", {"round": round_id, "peer": peer_id}
            )

        def finalized_everywhere() -> bool:
            return all(
                peer.gateway.call(
                    peer.coordinator_address, "finalized_hash", round_id=round_id
                )
                is not None
                for peer in (self.peers[peer_id] for peer_id in voters)
            )

        self._wait_until(finalized_everywhere, f"round {round_id} finalization")

        return [
            self._log_from_payload(
                round_id,
                self._run_task(
                    self._owner[peer_id],
                    "adopt_final",
                    {"round": round_id, "peer": peer_id},
                )[0],
            )
            for peer_id in voters
        ]

    def _catch_up_peer(self, peer_id: str, fetch_round: int) -> int:
        # The rejoining peer's model lives with its worker, so the FedAvg
        # catch-up adoption runs there; the chain-side heal/partition and
        # head-hash wait already happened coordinator-side.
        value, _blobs = self._run_task(
            self._owner[peer_id], "catch_up", {"round": fetch_round, "peer": peer_id}
        )
        return int(value)

    def _rate_round(self, round_id: int, updates_by_view: dict) -> None:
        # One rater at a time, cohort order — rating transactions must
        # hit the mempool in the same order as the in-process pass.
        for rater_id in self.peer_ids:
            if rater_id in updates_by_view:
                self._run_task(
                    self._owner[rater_id], "rate", {"round": round_id, "peer": rater_id}
                )

    # -- reporting ---------------------------------------------------------

    def export_model_bytes(self, peer_id: str) -> bytes:
        payload = self._exports.get(peer_id)
        if payload is None:
            raise ConfigError(
                f"{peer_id}: no exported model (multiprocess exports are "
                "collected when run() completes)"
            )
        return payload

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
        # Channel totals come from the broker's handles, which outlive
        # the shutdown handshake (closed sockets keep their counters).
        payload["wire"] = {
            "workers": self.num_workers,
            "bytes_sent": sum(h.channel.bytes_sent for h in self.broker.handles),
            "bytes_received": sum(h.channel.bytes_received for h in self.broker.handles),
            "rpc_round_trips": wire_trips,
            "seconds": wire_seconds,
            "method_seconds": method_seconds,
        }
        payload["worker_stats"] = workers
        payload["runtime"] = "multiprocess"
        return payload
