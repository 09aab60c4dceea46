"""The compute half of a round: the :class:`PeerShard`.

A shard builds and owns the :class:`~repro.core.peer.FullPeer`\\ s and
:class:`~repro.fl.scoring.CombinationEngine`\\ s of a set of peer ids and
does the part of every round step that needs their datasets, models and
rng streams — and nothing that reads or writes the ledger.  Each step is
a function of what the driver hands it: ``train`` signs commitments with
the nonces the driver read; ``score``, ``vote``, ``adopt_final``,
``rate`` and ``catch_up`` work from the on-chain submission records the
driver read (and, for ``adopt_final``, the finalized hash); ``vote`` and
``rate`` return the aggregate archives and rating triples the driver
signs and submits.  The one store a step writes is the shard's own
content-addressed off-chain store (a commitment's weights).

Every round step has one calling convention: ``step(round_id,
**{input: {peer_id: value}})`` returns ``{peer_id: output}``, in the
driver's order.  That makes a step a task — ``(op, round, per-peer
inputs)`` — whose wire form :data:`repro.runtime.steps.STEPS` states once.

The driver (:mod:`repro.core.decentralized`) owns the ledger half — every
gateway call, through each peer's full stack, under both runtimes.
In-process it holds one shard over the whole cohort; each worker process
of the multiprocess runtime (:mod:`repro.runtime.worker`) holds one over
the peers the coordinator dealt it, and the coordinator swaps in
:class:`repro.runtime.coordinator.RemoteShard`, which sends each step to
the owning workers as tasks.  The byte-sensitive per-peer work exists
exactly once, so the two runtimes cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.chain.crypto import Address
from repro.chain.gateway import ChainGateway
from repro.chain.transaction import Transaction
from repro.core.peer import FullPeer, PeerConfig, peer_keypair
from repro.data.dataset import Dataset
from repro.fl.aggregation import ModelUpdate, fedavg
from repro.fl.scoring import CombinationEngine, FirstLayerMemo
from repro.fl.selection import pick_best
from repro.nn.model import Sequential
from repro.nn.serialize import WeightArchive, as_archive, weights_to_bytes
from repro.utils.rng import RngFactory

#: Largest visible-update count ``selection="auto"`` still searches
#: exhaustively (2^6 - 1 subsets); beyond it the search turns greedy, so
#: the paper's 3-peer tables stay exhaustive while large cohorts stay
#: tractable.
EXHAUSTIVE_LIMIT = 6

#: Reputation extension: a rated peer whose solo model scores within this
#: accuracy margin of the rater's own solo model earns a positive rating.
REPUTATION_FITNESS_MARGIN = 0.10


@dataclass
class PeerRoundLog:
    """One peer's view of one round."""

    peer_id: str
    round_id: int
    combination_accuracy: dict[str, float] = field(default_factory=dict)
    chosen_combination: tuple[str, ...] = ()
    chosen_accuracy: float = 0.0
    models_used: int = 0          # size of the adopted combination
    updates_visible: int = 0      # updates on-chain when aggregation ran
    submitted_at: float = 0.0
    ready_at: float = 0.0
    aggregated_at: float = 0.0

    @property
    def wait_time(self) -> float:
        """Simulated seconds between own submission and policy readiness."""
        return max(self.ready_at - self.submitted_at, 0.0)


class PeerShard:
    """The local side of a set of peers: their models, data and rng streams.

    ``config`` is the driver's :class:`~repro.core.decentralized
    .DecentralizedConfig` (its ``selection`` is read here); ``rngs`` is the
    chain-spawned factory whose ``peer/<id>`` streams are derived from
    (seed, label), so a peer draws the same numbers
    whichever shard holds it.  A peer added without datasets is chain-only
    — it signs and reads the ledger and has no engine; the multiprocess
    coordinator holds the whole cohort that way.  A peer added without a
    gateway is compute-only; a worker holds its slice that way.

    The round steps take ``{peer_id: input}`` maps by keyword and work
    through them in their order; ``views`` maps each peer to the
    submission records its view of the round is built from
    (``Round.view_records``).
    """

    def __init__(
        self,
        config,
        offchain,
        rngs: RngFactory,
        model_builder: Optional[Callable[[np.random.Generator], Sequential]],
    ) -> None:
        self.config = config
        self.offchain = offchain
        self.rngs = rngs
        self.model_builder = model_builder
        self.peers: dict[str, FullPeer] = {}
        #: Per-peer scoring engines.  Tests may attach an ``instrument``
        #: hook to count evaluations.  Between searches an engine holds
        #: scores only: its rows are per viewer (a peer's own test set is
        #: in them) and are released when the search returns.
        self.engines: dict[str, CombinationEngine] = {}
        #: The first-layer stack every engine's activation pass uses: built
        #: once per view the round's viewers share, dropped when the next
        #: round begins and with the shard.
        self.first_layer = FirstLayerMemo()
        self.addresses: dict[str, Address] = {}
        self.id_of_address: dict[Address, str] = {}
        self._round: Optional[int] = None
        self._views: dict[str, list[ModelUpdate]] = {}

    def add_peer(
        self,
        pc: PeerConfig,
        gateway: Optional[ChainGateway],
        train_set: Optional[Dataset],
        test_set: Optional[Dataset],
    ) -> None:
        """Materialize one peer (and its engine) on its gateway stack."""
        peer = FullPeer(
            config=pc,
            keypair=peer_keypair(pc.peer_id),
            gateway=gateway,
            offchain=self.offchain,
            train_set=train_set,
            test_set=test_set,
            model_builder=self.model_builder,
            rng=self.rngs.get("peer", pc.peer_id),
        )
        self.peers[pc.peer_id] = peer
        if peer.client is not None:
            self.engines[pc.peer_id] = CombinationEngine(
                peer.client.model, peer.client.test_set, first_layer=self.first_layer
            )

    def configure(
        self, model_store: Address, coordinator: Address, addresses: dict[str, Address]
    ) -> None:
        """Install the deployed contract addresses and the cohort's address book."""
        for peer in self.peers.values():
            peer.model_store_address = model_store
            peer.coordinator_address = coordinator
        self.addresses = dict(addresses)
        self.id_of_address = {address: peer_id for peer_id, address in addresses.items()}

    # -- round state -------------------------------------------------------

    def _begin_round(self, round_id: int) -> None:
        """Reset the per-round memos on the first step of a new round.

        Scores never carry across rounds (every peer retrains), so the
        engine caches and the first-layer stack are cleared to bound
        memory; they are content-addressed, so clearing is never a
        correctness requirement.  Within a round the solo scores stay live
        for the rating pass.
        """
        if round_id == self._round:
            return
        self._round = round_id
        self._views.clear()
        self.first_layer.clear()
        for engine in self.engines.values():
            engine.cache.clear()

    def _use_greedy(self, n_updates: int) -> bool:
        """Whether this round's combination search should be greedy."""
        if self.config.selection == "greedy":
            return True
        return self.config.selection == "auto" and n_updates > EXHAUSTIVE_LIMIT

    # -- round steps -------------------------------------------------------

    def train(self, round_id: int, nonces: dict[str, int]) -> dict[str, tuple[Transaction, float]]:
        """Train each peer of ``nonces``; returns ``{peer_id: (commit_tx, duration)}``.

        Nothing is submitted here: the driver broadcasts the signed
        transactions on the event engine, so mempool order is
        scheduler-controlled whichever process trained.
        """
        self._begin_round(round_id)
        trained = {}
        for peer_id, nonce in nonces.items():
            peer = self.peers[peer_id]
            _update, tx = peer.train_and_commit(round_id, nonce)
            trained[peer_id] = (tx, peer.sample_training_time())
        return trained

    def view(self, round_id: int, peer_id: str, records: list[dict]) -> list[ModelUpdate]:
        """One peer's decoded view of the round — the updates ``records``
        commit to — fetched once per round and shared by the steps below."""
        self._begin_round(round_id)
        if peer_id not in self._views:
            self._views[peer_id] = self.peers[peer_id].fetch_updates(
                round_id, records, self.id_of_address
            )
        return self._views[peer_id]

    def score(self, round_id: int, views: dict[str, list[dict]]) -> dict[str, PeerRoundLog]:
        """Search combinations on each peer's test set; adopt the best."""
        return {
            peer_id: self._search(round_id, peer_id, records) for peer_id, records in views.items()
        }

    def _search(self, round_id: int, peer_id: str, records: list[dict]) -> PeerRoundLog:
        """One peer's combination search: log the table, adopt the best.

        Exhaustive enumeration reproduces the paper's tables; forward
        selection logs only the adopted combination (the full table would
        have 2^n rows).  Tie-breaking draws from ``peer.rng`` (exhaustive
        path only) — the peer's canonical named stream, whichever shard
        holds it.  One call per peer, so a peer's accuracy table and
        materialized aggregate are released before the next peer's search
        allocates.
        """
        peer = self.peers[peer_id]
        engine = self.engines[peer_id]
        updates = self.view(round_id, peer_id, records)
        if self._use_greedy(len(updates)):
            chosen = engine.greedy(updates)
            scored = [chosen]
        else:
            scored = engine.enumerate(updates)
            top = pick_best(scored, peer.rng)
            chosen = engine.materialize(top.members, updates, top.accuracy)
        peer.adopt(chosen.weights)
        return PeerRoundLog(
            peer_id=peer_id,
            round_id=round_id,
            combination_accuracy={result.label: result.accuracy for result in scored},
            chosen_combination=chosen.members,
            chosen_accuracy=chosen.accuracy,
            models_used=len(chosen.members),
            updates_visible=len(updates),
        )

    def vote(self, round_id: int, views: dict[str, list[dict]]) -> dict[str, WeightArchive]:
        """Global-vote mode: each peer's FedAvg of its view, as the archive
        whose hash the driver stores off-chain and votes on chain.

        Identical visible sets produce byte-identical aggregates, so the
        content-addressed put stores the blob once; each peer still pays
        one serialization to discover its aggregate's hash.
        """
        return {
            peer_id: as_archive(fedavg(self.view(round_id, peer_id, records)))
            for peer_id, records in views.items()
        }

    def adopt_final(
        self, round_id: int, views: dict[str, list[dict]], finals: dict[str, str]
    ) -> dict[str, PeerRoundLog]:
        """Global-vote mode: each peer evaluates the aggregate its chain view
        finalized (``finals``, read by the driver) locally and adopts it."""
        logs = {}
        for peer_id, records in views.items():
            peer = self.peers[peer_id]
            updates = self.view(round_id, peer_id, records)
            weights = self.offchain.get_weights(finals[peer_id])
            accuracy = peer.evaluate_weights(weights)
            peer.adopt(weights)
            members = tuple(sorted(update.client_id for update in updates))
            logs[peer_id] = PeerRoundLog(
                peer_id=peer_id,
                round_id=round_id,
                combination_accuracy={",".join(members): accuracy},
                chosen_combination=members,
                chosen_accuracy=accuracy,
                models_used=len(members),
                updates_visible=len(updates),
            )
        return logs

    def rate(
        self, round_id: int, views: dict[str, list[dict]]
    ) -> dict[str, list[tuple[Address, int, str]]]:
        """Reputation extension: each rater's ``(subject, delta, reason)``
        ratings of the updates it saw, for the driver to sign and submit.

        A peer whose solo model scores within :data:`REPUTATION_FITNESS_MARGIN`
        of the rater's own solo earns +5; one that falls further behind (an
        abnormal/noisy model) earns -10, building the on-chain record used
        to exclude low-credibility peers.  Solo scores were already computed
        during the aggregation search, so the fitness lookups are pure cache
        hits — the rating pass adds zero model evaluations.  A rater whose
        own update is not in its view rates nobody.
        """
        ratings: dict[str, list[tuple[Address, int, str]]] = {}
        for peer_id, records in views.items():
            engine = self.engines[peer_id]
            updates = self.view(round_id, peer_id, records)
            own = next((u for u in updates if u.client_id == peer_id), None)
            ratings[peer_id] = []
            if own is None:
                continue
            own_accuracy = engine.solo_accuracy(own)
            for update in updates:
                if update.client_id == peer_id:
                    continue
                fit = engine.solo_accuracy(update)
                ratings[peer_id].append(
                    (
                        self.addresses[update.client_id],
                        5 if fit >= own_accuracy - REPUTATION_FITNESS_MARGIN else -10,
                        f"fitness {fit:.3f} vs own {own_accuracy:.3f}",
                    )
                )
        return ratings

    def catch_up(self, fetch_round: int, records: dict[str, list[dict]]) -> dict[str, int]:
        """Rejoin catch-up: each peer adopts the FedAvg of ``fetch_round``'s
        updates its ``records`` commit to.

        Returns how many on-chain updates fed each aggregate.  Deliberately
        not the per-round view memo: a rejoining peer may have fetched (an
        empty view of) that round while partitioned, and catch-up must see
        the healed chain's records.
        """
        counts = {}
        for peer_id, peer_records in records.items():
            peer = self.peers[peer_id]
            updates = peer.fetch_updates(fetch_round, peer_records, self.id_of_address)
            if updates:
                peer.adopt(fedavg(updates))
            counts[peer_id] = len(updates)
        return counts

    def export(self, round_id: int, peers: dict[str, object]) -> dict[str, bytes]:
        """Each peer's current model weights as canonical codec-v2 bytes —
        the byte surface the runtime-equivalence tests compare.  Only the
        keys of ``peers`` are read, and ``round_id`` not at all: the step
        keeps the one calling convention."""
        return {
            peer_id: weights_to_bytes(self.peers[peer_id].client.model.get_weights())
            for peer_id in peers
        }
