"""The fully coupled peer: data holder + trainer + ledger client + aggregator.

One :class:`FullPeer` owns a :class:`~repro.chain.gateway.ChainGateway`
(its only window onto the ledger), an :class:`~repro.fl.client.FLClient`
(so it trains), and the wiring between them: signing commitments of local
models, reading other peers' commitments back, fetching weights
off-chain, and adopting the aggregate Section III's combination search
picks.  Either half may be absent: the multiprocess coordinator holds
chain-only peers (no client), and a worker holds compute-only peers (no
gateway — the driver reads nonces and views and hands them in).  The
peer never touches a raw :class:`~repro.chain.node.Node`; a seam test
enforces that for the whole FL layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.chain.crypto import Address, KeyPair
from repro.chain.gateway import ChainGateway
from repro.chain.transaction import Transaction
from repro.core.offchain import OffchainStore
from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.aggregation import ModelUpdate
from repro.fl.client import ClientConfig, FLClient
from repro.fl.poisoning import Attacker
from repro.fl.trainer import TrainConfig
from repro.nn.model import Sequential


@dataclass
class PeerConfig:
    """Identity plus FL hyperparameters for one peer.

    ``attacker`` makes the peer adversarial: the hook is forwarded to the
    embedded :class:`~repro.fl.client.FLClient`, so every update the peer
    commits on chain has passed through
    :meth:`~repro.fl.poisoning.Attacker.poison_update`.
    """

    peer_id: str                      # display id, e.g. "A"
    train_config: TrainConfig
    model_kind: str = "simple_nn"
    training_time: float = 30.0       # simulated seconds of local training
    training_time_jitter: float = 5.0
    attacker: Optional[Attacker] = None

    def __post_init__(self) -> None:
        if not self.peer_id:
            raise ConfigError("peer_id must be non-empty")
        if self.training_time <= 0:
            raise ConfigError("training_time must be positive")


def peer_keypair(peer_id: str) -> KeyPair:
    """A peer's chain identity — the one recipe every process derives it by."""
    return KeyPair.from_seed(f"peer-{peer_id}")


def registration_transaction(
    keypair: KeyPair, registry_address: Address, display_name: str, nonce: int
) -> Transaction:
    """Signed ``register`` call for an identity with no instantiated peer.

    Under client sampling most of a thousand-peer cohort never trains, so
    the driver materializes no :class:`FullPeer` (no node, no gateway) for
    those identities — but the on-chain registry must still hold the whole
    roster.  Any live gateway can broadcast the returned transaction on the
    absent identity's behalf: it is signed with the identity's own key, so
    the chain sees exactly the self-registration an instantiated peer would
    have sent.
    """
    tx = Transaction(
        sender=keypair.address,
        to=registry_address,
        nonce=nonce,
        method="register",
        args={"display_name": display_name},
    )
    return tx.sign_with(keypair)


class FullPeer:
    """One fully coupled participant of the decentralized deployment."""

    def __init__(
        self,
        config: PeerConfig,
        keypair: KeyPair,
        gateway: Optional[ChainGateway],
        offchain: OffchainStore,
        train_set: Optional[Dataset],
        test_set: Optional[Dataset],
        model_builder: Optional[Callable[[np.random.Generator], Sequential]],
        rng: np.random.Generator,
        attack_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config
        self.peer_id = config.peer_id
        self.keypair = keypair
        self.gateway = gateway
        self.offchain = offchain
        self.rng = rng
        # Chain-only mode (no datasets/model builder): the peer signs,
        # submits, and reads the ledger but owns no local model.  The
        # multiprocess coordinator (repro.runtime) holds the cohort this
        # way — training, evaluation, and adoption live in the workers.
        self.client: Optional[FLClient] = None
        if train_set is not None and test_set is not None and model_builder is not None:
            self.client = FLClient(
                ClientConfig(
                    client_id=config.peer_id,
                    train_config=config.train_config,
                    attacker=config.attacker,
                ),
                train_set,
                test_set,
                model_builder,
                rng,
                attack_rng=attack_rng,
            )
        self.model_store_address: Optional[Address] = None
        self.coordinator_address: Optional[Address] = None

    def _require_client(self) -> FLClient:
        if self.client is None:
            raise ConfigError(
                f"{self.peer_id}: chain-only peer has no local model "
                "(training and evaluation live in the worker processes)"
            )
        return self.client

    @property
    def address(self) -> Address:
        """On-chain address of this peer."""
        return self.keypair.address

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def make_transaction(
        self,
        to: Optional[Address],
        method: str = "",
        args: Optional[dict] = None,
        data: bytes = b"",
        nonce: Optional[int] = None,
    ) -> Transaction:
        """Build and sign a transaction from this peer's account; the nonce
        is read through the gateway unless the caller already read it."""
        tx = Transaction(
            sender=self.address,
            to=to,
            nonce=self.gateway.next_nonce(self.address) if nonce is None else nonce,
            method=method,
            args=args or {},
            data=data,
        )
        return tx.sign_with(self.keypair)

    def sample_training_time(self) -> float:
        """Simulated duration of this round's local training."""
        jitter = self.config.training_time_jitter
        extra = float(self.rng.uniform(0.0, jitter)) if jitter > 0 else 0.0
        return self.config.training_time + extra

    # ------------------------------------------------------------------
    # FL protocol steps
    # ------------------------------------------------------------------

    def train_and_commit(self, round_id: int, nonce: int) -> tuple[ModelUpdate, Transaction]:
        """Local training, off-chain upload, and on-chain commitment tx.

        Returns the update (for local bookkeeping) and the ``submit_model``
        transaction, signed with the ``nonce`` the driver read and ready
        for broadcast.

        The update's :class:`~repro.nn.serialize.WeightArchive` is the
        single encoding behind everything committed here: the off-chain
        payload, the on-chain hash, and the reported model size all come
        from one serialization (the seed code paid one each).
        """
        if self.model_store_address is None:
            raise ConfigError(f"{self.peer_id}: model store address not set")
        update = self._require_client().train_local(round_id)
        archive = update.archive()
        commitment = self.offchain.put_archive(archive)
        tx = self.make_transaction(
            to=self.model_store_address,
            method="submit_model",
            args={
                "round_id": round_id,
                "weights_hash": commitment,
                "num_samples": update.num_samples,
                "model_kind": self.config.model_kind,
                "reported_accuracy": update.reported_accuracy,
                "size_bytes": archive.size,
            },
            data=commitment.encode("ascii"),
            nonce=nonce,
        )
        return update, tx

    def visible_submissions(self, round_id: int) -> list[dict]:
        """Commitments visible on this peer's canonical chain view."""
        if self.model_store_address is None:
            raise ConfigError(f"{self.peer_id}: model store address not set")
        return self.gateway.call(
            self.model_store_address, "round_submissions", round_id=round_id
        )

    def fetch_updates(
        self, round_id: int, records: list[dict], id_of: dict[Address, str]
    ) -> list[ModelUpdate]:
        """Materialize :class:`ModelUpdate` objects from on-chain commitments.

        ``records`` are :meth:`visible_submissions` entries (read by the
        driver); ``id_of`` maps chain addresses to display peer ids.  The
        committed hashes are fetched from the off-chain store in one
        batched lookup; submissions whose weights have not propagated yet
        are skipped.
        """
        available = self.offchain.fetch_available(
            [record["weights_hash"] for record in records]
        )
        updates = []
        for record in records:
            weights = available.get(record["weights_hash"])
            if weights is None:
                continue
            updates.append(
                ModelUpdate(
                    client_id=id_of.get(record["author"], record["author"]),
                    weights=weights,
                    num_samples=record["num_samples"],
                    round_id=round_id,
                    reported_accuracy=record["reported_accuracy"],
                    fingerprint=weights.fingerprint,
                )
            )
        return updates

    def evaluate_weights(self, weights: dict[str, np.ndarray]) -> float:
        """Fitness of ``weights`` on this peer's private test set."""
        return self._require_client().evaluate_weights(weights)

    def adopt(self, weights: dict[str, np.ndarray]) -> None:
        """Install the chosen aggregated model for the next round."""
        self._require_client().apply_global(weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FullPeer(id={self.peer_id!r}, address={self.address[:10]}...)"
