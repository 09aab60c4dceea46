"""Worker process: owns a shard of the cohort's models, knows no ledger.

Launched as ``python -m repro.runtime.worker --connect HOST:PORT
--worker INDEX`` by the broker.  The worker dials the coordinator, says
``hello``, then serves tasks one at a time: ``init`` rebuilds its shard
of peers from the :class:`~repro.scenarios.spec.ScenarioSpec` (datasets,
models, rng streams all re-derived locally — nothing heavyweight crosses
the wire), and the round ops (``train`` / ``score`` / ``rate`` /
``vote`` / ``adopt_final``) execute exactly the per-peer seam functions
the in-process driver calls, against the same named rng streams.

Every ledger touch goes through :class:`~repro.runtime.gateway
.RemoteGateway` / :class:`~repro.runtime.gateway.RemoteOffchain` on the
task channel — the worker holds no :class:`~repro.chain.node.Node`, no
simulator, and never re-seeds from pid or wall clock, which is what
makes a multiprocess run byte-identical to the in-process one.

Determinism contract (why sharding cannot change results):

* peer ``rng`` streams are ``chain.get("peer", peer_id)`` — derived
  from (seed, label), not from draw order, so a peer's draws are the
  same no matter which worker owns it or what its siblings do;
* model init uses one shared ``model-init`` seed drawn coordinator- and
  worker-side at the same point of the same stream recipe;
* submissions never happen here — train tasks *return* signed
  transactions and the coordinator broadcasts them on the event engine,
  so mempool order is scheduler-controlled, not process-race-controlled.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Optional

from repro.chain.crypto import KeyPair
from repro.chain.gateway import BatchingGateway, GatewayStats
from repro.errors import (
    GatewayError,
    NetworkError,
    SerializationError,
    WireProtocolError,
)
from repro.nn.serialize import weights_to_bytes
from repro.runtime.gateway import HeadSignal, RemoteGateway, RemoteOffchain
from repro.runtime.wire import WireChannel, WireClosedError, connect, encode_error
from repro.utils.rng import RngFactory

#: Errors a task handler may raise as part of normal protocol operation;
#: they cross the wire typed.  Anything else is a worker bug and crosses
#: as a generic :class:`GatewayError` (with the traceback on stderr).
_TASK_SAFE_ERRORS = (GatewayError, SerializationError, NetworkError)


def _log_payload(log) -> dict:
    """Wire form of a :class:`~repro.core.decentralized.PeerRoundLog`.

    The accuracy table ships as an ordered ``[label, accuracy]`` pair
    list: canonical JSON sorts dict keys, and the table's insertion
    order (enumeration order of the combination search) must survive
    the trip for report output to stay byte-identical.
    """
    return {
        "peer": log.peer_id,
        "table": [[label, acc] for label, acc in log.combination_accuracy.items()],
        "chosen": list(log.chosen_combination),
        "accuracy": log.chosen_accuracy,
        "models_used": log.models_used,
        "updates_visible": log.updates_visible,
    }


class WorkerRuntime:
    """Task loop for one worker process."""

    def __init__(self, channel: WireChannel, index: int) -> None:
        self.channel = channel
        self.index = index
        self.config = None
        self.peers: dict[str, object] = {}
        self.transports: dict[str, RemoteGateway] = {}
        self.engines: dict[str, object] = {}
        self._offchain_stats = GatewayStats()
        self.offchain = RemoteOffchain(channel, stats=self._offchain_stats)
        self.head_signal = HeadSignal()
        self.reputation_address: Optional[str] = None
        self.addresses: dict[str, str] = {}
        self.id_of: dict[str, str] = {}
        self._views: dict[tuple[int, str], list] = {}
        self._cleared_round: Optional[int] = None

    # -- serve loop --------------------------------------------------------

    def serve(self) -> None:
        """Receive tasks until ``shutdown`` (or the channel closes)."""
        while True:
            header, blobs, _size = self.channel.recv()
            if header.get("kind") != "task":
                self.channel.send(
                    {
                        "kind": "result",
                        "error": encode_error(
                            WireProtocolError(
                                f"worker expected a task frame, got {header.get('kind')!r}"
                            )
                        ),
                    }
                )
                continue
            stamp = header.get("head")
            if stamp is not None:
                # The coordinator's per-task head push; exact until the
                # next wait_for pumps the chain (see HeadSignal).
                self.head_signal.value = (str(stamp["hash"]), float(stamp["now"]))
            op = header.get("op", "")
            if op == "shutdown":
                self.channel.send({"kind": "result", "value": "bye"})
                return
            if op == "crash":
                # Test hook: die without a goodbye, as a real fault would.
                os._exit(13)
            try:
                value, out_blobs = self.dispatch(op, header.get("params", {}), blobs)
            except _TASK_SAFE_ERRORS as exc:
                self.channel.send({"kind": "result", "error": encode_error(exc)})
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                self.channel.send(
                    {
                        "kind": "result",
                        "error": encode_error(
                            GatewayError(f"worker {self.index} {op} failed: {exc!r}")
                        ),
                    }
                )
            else:
                self.channel.send({"kind": "result", "value": value}, out_blobs)

    def dispatch(self, op: str, params: dict, blobs: tuple) -> tuple:
        """Route one task; returns ``(value, blobs)`` for the result frame."""
        handlers = {
            "init": self._init,
            "configure": self._configure,
            "train": self._train,
            "score": self._score,
            "rate": self._rate,
            "vote": self._vote,
            "adopt_final": self._adopt_final,
            "catch_up": self._catch_up,
            "export": self._export,
            "stats": self._stats,
            "ping": lambda params: "pong",
        }
        handler = handlers.get(op)
        if handler is None:
            raise WireProtocolError(f"unknown worker task op {op!r}")
        value = handler(params)
        if isinstance(value, tuple):
            return value
        return value, ()

    # -- lifecycle tasks ---------------------------------------------------

    def _init(self, params: dict):
        # Imported lazily: the scenario runner imports this package back
        # (repro.runtime.coordinator) for the multiprocess dispatch.
        from repro.core.participation import ParticipationPlan
        from repro.fl.scoring import CombinationEngine
        from repro.core.peer import FullPeer
        from repro.runtime.speccodec import decode_spec
        from repro.scenarios.runner import ScenarioContext, decentralized_inputs

        spec = decode_spec(params["spec"])
        workers = int(params["workers"])
        rngs = RngFactory(spec.seed)
        inputs = decentralized_inputs(spec, rngs, ScenarioContext())
        self.config = inputs.config
        chain_spec = inputs.config.chain
        chain = rngs.spawn("chain")
        # Same plan the coordinator resolved: both sides derive it from the
        # chain-spawned participation/* streams, so they agree on exactly
        # which identities are ever materialized.
        plan = ParticipationPlan(
            inputs.config.participation,
            [pc.peer_id for pc in inputs.peer_configs],
            inputs.config.rounds,
            chain,
        )
        for position, pc in enumerate(inputs.peer_configs):
            if position % workers != self.index:
                continue
            if pc.peer_id not in plan.ever_active:
                continue  # registered on chain, never trains: no peer here
            transport = RemoteGateway(
                self.channel,
                pc.peer_id,
                default_deadline=chain_spec.max_round_time,
                head_signal=self.head_signal,
            )
            gateway = (
                BatchingGateway(transport, staleness=chain_spec.gateway_staleness)
                if chain_spec.gateway == "batching"
                else transport
            )
            peer = FullPeer(
                config=pc,
                keypair=KeyPair.from_seed(f"peer-{pc.peer_id}"),
                gateway=gateway,
                offchain=self.offchain,
                train_set=inputs.train_sets[pc.peer_id],
                test_set=inputs.test_sets[pc.peer_id],
                model_builder=inputs.model_builder,
                rng=chain.get("peer", pc.peer_id),
                attack_rng=(
                    chain.get("attack", pc.peer_id) if pc.attacker is not None else None
                ),
            )
            self.peers[pc.peer_id] = peer
            self.transports[pc.peer_id] = transport
            self.engines[pc.peer_id] = CombinationEngine(
                peer.client.model, peer.client.test_set
            )
        return sorted(self.peers)

    def _configure(self, params: dict):
        for peer in self.peers.values():
            peer.model_store_address = params["model_store"]
            peer.coordinator_address = params["coordinator"]
        self.reputation_address = params["reputation"]
        self.addresses = dict(params["addresses"])
        self.id_of = {address: pid for pid, address in self.addresses.items()}
        return "configured"

    # -- round state -------------------------------------------------------

    def _begin_round(self, round_id: int) -> None:
        """Reset per-round memos on the first task of a new round.

        The engine caches are content-addressed, so clearing is purely a
        memory bound — never a correctness requirement."""
        if round_id == self._cleared_round:
            return
        self._cleared_round = round_id
        self._views.clear()
        for engine in self.engines.values():
            engine.cache.clear()

    def _fetch(self, peer_id: str, round_id: int) -> list:
        key = (round_id, peer_id)
        if key not in self._views:
            self._views[key] = self.peers[peer_id].fetch_updates(round_id, self.id_of)
        return self._views[key]

    def _use_greedy(self, n_updates: int) -> bool:
        if self.config.selection == "greedy":
            return True
        return (
            self.config.selection == "auto"
            and n_updates > self.config.exhaustive_limit
        )

    # -- round tasks -------------------------------------------------------

    def _train(self, params: dict):
        round_id = int(params["round"])
        self._begin_round(round_id)
        out = []
        for peer_id in params["peers"]:
            peer = self.peers[peer_id]
            _update, tx = peer.train_and_commit(round_id)
            out.append(
                {
                    "peer": peer_id,
                    "tx": tx.to_dict(),
                    "duration": peer.sample_training_time(),
                }
            )
        return out

    def _score(self, params: dict):
        from repro.core.decentralized import adopt_choice, choose_combination

        round_id = int(params["round"])
        self._begin_round(round_id)
        out = []
        for peer_id in params["peers"]:
            peer = self.peers[peer_id]
            updates = self._fetch(peer_id, round_id)
            scored, chosen = choose_combination(
                peer, self.engines[peer_id], updates, self._use_greedy(len(updates))
            )
            log = adopt_choice(peer, round_id, updates, scored, chosen)
            out.append(_log_payload(log))
        return out

    def _rate(self, params: dict):
        from repro.core.decentralized import rate_visible_updates

        round_id = int(params["round"])
        self._begin_round(round_id)
        peer_id = params["peer"]
        rate_visible_updates(
            self.peers[peer_id],
            self.engines[peer_id],
            self._fetch(peer_id, round_id),
            round_id,
            self.reputation_address,
            lambda pid: self.addresses[pid],
            self.config.reputation_fitness_margin,
        )
        return "rated"

    def _vote(self, params: dict):
        from repro.core.decentralized import submit_global_vote

        round_id = int(params["round"])
        self._begin_round(round_id)
        peer_id = params["peer"]
        submit_global_vote(
            self.peers[peer_id], self._fetch(peer_id, round_id), round_id, self.offchain
        )
        return "voted"

    def _adopt_final(self, params: dict):
        from repro.core.decentralized import adopt_global_model

        round_id = int(params["round"])
        peer_id = params["peer"]
        log = adopt_global_model(
            self.peers[peer_id], self._fetch(peer_id, round_id), round_id, self.offchain
        )
        return _log_payload(log)

    def _catch_up(self, params: dict):
        from repro.fl.aggregation import fedavg

        fetch_round = int(params["round"])
        peer = self.peers[params["peer"]]
        # Deliberately NOT the per-round view memo: the rejoining peer may
        # have fetched (an empty view of) this round while partitioned, and
        # catch-up must see the healed chain.
        updates = peer.fetch_updates(fetch_round, self.id_of)
        if updates:
            peer.adopt(fedavg(updates))
        return len(updates)

    # -- collection tasks --------------------------------------------------

    def _export(self, params: dict):
        peer_ids = list(params["peers"])
        blobs = tuple(
            weights_to_bytes(self.peers[peer_id].client.model.get_weights())
            for peer_id in peer_ids
        )
        return peer_ids, blobs

    def _stats(self, params: dict):
        requested = GatewayStats()
        for peer in self.peers.values():
            requested.add(peer.gateway.stats)
        wire = GatewayStats()
        for transport in self.transports.values():
            wire.add(transport.stats)
        wire.add(self._offchain_stats)
        return {
            "worker": self.index,
            "peers": sorted(self.peers),
            "requested": requested.as_dict(),
            "wire": wire.as_dict(),
            "wire_seconds": wire.wire_seconds,
            "wire_method_seconds": dict(wire.wire_method_seconds),
            "channel": {
                "bytes_sent": self.channel.bytes_sent,
                "bytes_received": self.channel.bytes_received,
            },
        }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repro cohort worker process")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--worker", required=True, type=int)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    channel = connect(host, int(port))
    try:
        channel.send({"kind": "hello", "worker": args.worker})
        WorkerRuntime(channel, args.worker).serve()
    except WireClosedError:
        # Coordinator went away mid-task; nothing left to serve.
        return 0
    finally:
        channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
