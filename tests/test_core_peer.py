"""Unit tests for the fully coupled peer (transaction building, commit flow)."""

import numpy as np
import pytest

from repro.chain.crypto import KeyPair
from repro.chain.gateway import InProcessGateway
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.runtime import ContractRuntime
from repro.contracts import register_all
from repro.core.offchain import OffchainStore
from repro.core.peer import FullPeer, PeerConfig
from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.trainer import TrainConfig
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.nn.serialize import weights_fingerprint, weights_hash


def easy_dataset(rng, n=60):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] > 0).astype(np.int64)
    return Dataset(x, y)


@pytest.fixture
def peer():
    runtime = ContractRuntime()
    register_all(runtime)
    kp = KeyPair.from_seed("unit-peer")
    genesis = GenesisSpec(allocations={kp.address: 10**15})
    node = Node(kp, genesis, runtime, NodeConfig())
    data_rng = np.random.default_rng(0)
    return FullPeer(
        config=PeerConfig(peer_id="A", train_config=TrainConfig(epochs=1)),
        keypair=kp,
        gateway=InProcessGateway(node),
        offchain=OffchainStore(),
        train_set=easy_dataset(data_rng),
        test_set=easy_dataset(data_rng, n=40),
        model_builder=lambda rng: Sequential([Dense(2, name="out")]).build(
            np.random.default_rng(42), (4,)
        ),
        rng=np.random.default_rng(1),
    )


class TestPeerConfig:
    def test_empty_id_rejected(self):
        with pytest.raises(ConfigError):
            PeerConfig(peer_id="", train_config=TrainConfig())

    def test_nonpositive_training_time_rejected(self):
        with pytest.raises(ConfigError):
            PeerConfig(peer_id="A", train_config=TrainConfig(), training_time=0.0)


class TestTransactions:
    def test_make_transaction_signed_and_sequenced(self, peer):
        tx1 = peer.make_transaction(to=None, args={"contract": "model_store"})
        assert tx1.verify_signature()
        assert tx1.nonce == 0
        peer.gateway.node.submit_transaction(tx1)
        tx2 = peer.make_transaction(to=None, args={"contract": "model_store"})
        assert tx2.nonce == 1  # pending tx counted

    def test_training_time_sampling_bounds(self, peer):
        base = peer.config.training_time
        jitter = peer.config.training_time_jitter
        for _ in range(50):
            duration = peer.sample_training_time()
            assert base <= duration <= base + jitter

    def test_zero_jitter_deterministic(self):
        config = PeerConfig(
            peer_id="A", train_config=TrainConfig(), training_time=12.0, training_time_jitter=0.0
        )
        assert config.training_time_jitter == 0.0


class TestCommitFlow:
    def _deploy_store(self, peer):
        deploy = peer.make_transaction(to=None, args={"contract": "model_store"})
        peer.gateway.node.submit_transaction(deploy)
        block = peer.gateway.node.build_block_candidate(13.0, difficulty=1)
        peer.gateway.node.seal_and_import(block, nonce=0)
        peer.model_store_address = peer.gateway.node.receipt_of(deploy.tx_hash).contract_address

    def test_requires_store_address(self, peer):
        with pytest.raises(ConfigError):
            peer.train_and_commit(1, nonce=0)
        with pytest.raises(ConfigError):
            peer.visible_submissions(1)

    def test_train_and_commit_binds_hash(self, peer):
        self._deploy_store(peer)
        update, tx = peer.train_and_commit(1, nonce=1)
        assert tx.args["weights_hash"] == weights_hash(update.weights)
        assert tx.args["weights_hash"] in peer.offchain
        assert tx.method == "submit_model"
        assert tx.verify_signature()

    def test_fetch_updates_round_trip(self, peer):
        self._deploy_store(peer)
        update, tx = peer.train_and_commit(1, nonce=1)
        peer.gateway.node.submit_transaction(tx)
        block = peer.gateway.node.build_block_candidate(26.0, difficulty=1)
        peer.gateway.node.seal_and_import(block, nonce=0)

        fetched = peer.fetch_updates(1, peer.visible_submissions(1), {peer.address: "A"})
        assert len(fetched) == 1
        assert fetched[0].client_id == "A"
        for key, value in fetched[0].weights.items():
            np.testing.assert_array_equal(value, update.weights[key])

    def test_fetched_weights_are_read_only_and_fingerprinted(self, peer):
        """Every reader shares the store's decoded arrays: a write must
        raise instead of corrupting the other peers' view, and the content
        hash arrives with the update instead of being recomputed per peer."""
        self._deploy_store(peer)
        update, tx = peer.train_and_commit(1, nonce=1)
        peer.gateway.node.submit_transaction(tx)
        block = peer.gateway.node.build_block_candidate(26.0, difficulty=1)
        peer.gateway.node.seal_and_import(block, nonce=0)

        (fetched,) = peer.fetch_updates(1, peer.visible_submissions(1), {peer.address: "A"})
        assert fetched.fingerprint == weights_fingerprint(update.weights)
        for value in fetched.weights.values():
            with pytest.raises(ValueError):
                value[...] = 0.0
        (again,) = peer.fetch_updates(1, peer.visible_submissions(1), {peer.address: "A"})
        for key, value in again.weights.items():
            assert np.shares_memory(value, fetched.weights[key])  # no copy per reader
            np.testing.assert_array_equal(value, update.weights[key])

    def test_fetch_skips_unpropagated_blobs(self, peer):
        self._deploy_store(peer)
        _update, tx = peer.train_and_commit(1, nonce=1)
        peer.gateway.node.submit_transaction(tx)
        block = peer.gateway.node.build_block_candidate(26.0, difficulty=1)
        peer.gateway.node.seal_and_import(block, nonce=0)
        # Simulate the off-chain blob not having arrived yet.
        peer.offchain._blobs.clear()
        assert peer.fetch_updates(1, peer.visible_submissions(1), {peer.address: "A"}) == []

    def test_adopt_and_evaluate(self, peer):
        foreign = Sequential([Dense(2, name="out")]).build(np.random.default_rng(7), (4,))
        weights = foreign.get_weights()
        accuracy = peer.evaluate_weights(weights)
        assert 0.0 <= accuracy <= 1.0
        peer.adopt(weights)
        for key, value in peer.client.model.get_weights().items():
            np.testing.assert_array_equal(value, weights[key])
