"""Cross-module integration tests: poisoning defense, ban flow, larger cohorts."""

import numpy as np
import pytest

from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.nonrepudiation import collect_evidence, verify_evidence
from repro.core.peer import PeerConfig
from repro.data.dataset import Dataset
from repro.fl.aggregation import ModelUpdate, fedavg
from repro.fl.poisoning import LabelFlipAttacker
from repro.fl.selection import best_combination, threshold_filter
from repro.fl.trainer import LocalTrainer, TrainConfig
from repro.fl.async_policy import WaitForK
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.utils.rng import RngFactory


def easy_dataset(rng, n=200):
    x = rng.normal(size=(n, 6))
    y = ((x[:, 0] + x[:, 1]) > 0).astype(np.int64)
    return Dataset(x, y)


def builder(rng):
    return Sequential([Dense(8, name="h"), ReLU(), Dense(2, name="out")]).build(
        np.random.default_rng(42), (6,)
    )


class TestPoisoningDefense:
    """The paper's abnormal-model claim: 'consider' excludes poisoned models."""

    def _trained_updates(self, poison_one=True):
        rng = np.random.default_rng(0)
        updates = []
        for index, client_id in enumerate(["A", "B", "C"]):
            dataset = easy_dataset(np.random.default_rng(10 + index))
            if poison_one and client_id == "C":
                attacker = LabelFlipAttacker()
                dataset = attacker.poison_dataset(dataset, rng)
            model = builder(np.random.default_rng(42))
            trainer = LocalTrainer(TrainConfig(epochs=6, learning_rate=0.1), rng=np.random.default_rng(20 + index))
            trainer.train(model, dataset)
            updates.append(
                ModelUpdate(client_id=client_id, weights=model.get_weights(), num_samples=len(dataset))
            )
        return updates

    def test_consider_excludes_attacker(self):
        updates = self._trained_updates()
        scratch = builder(np.random.default_rng(42))
        test_set = easy_dataset(np.random.default_rng(99), n=300)
        best = best_combination(updates, scratch, test_set)
        assert "C" not in best.members

    def test_consider_beats_plain_fedavg_under_attack(self):
        updates = self._trained_updates()
        scratch = builder(np.random.default_rng(42))
        test_set = easy_dataset(np.random.default_rng(99), n=300)
        from repro.fl.evaluation import evaluate_weights

        best = best_combination(updates, scratch, test_set)
        plain = evaluate_weights(scratch, fedavg(updates), test_set)
        assert best.accuracy > plain

    def test_threshold_filter_drops_attacker(self):
        updates = self._trained_updates()
        scratch = builder(np.random.default_rng(42))
        test_set = easy_dataset(np.random.default_rng(99), n=300)
        kept = threshold_filter(updates, scratch, test_set, threshold=0.7)
        assert {u.client_id for u in kept} == {"A", "B"}


class TestEvidenceToBanFlow:
    """Detect an abnormal peer, prove authorship, ban it via the registry."""

    def test_full_flow(self):
        peers = ("A", "B", "C")
        data_rng = np.random.default_rng(0)
        driver = DecentralizedFL(
            [PeerConfig(peer_id=p, train_config=TrainConfig(epochs=1), training_time=5.0) for p in peers],
            {p: easy_dataset(data_rng, n=60) for p in peers},
            {p: easy_dataset(data_rng, n=40) for p in peers},
            lambda rng: Sequential([Dense(2, name="out")]).build(np.random.default_rng(42), (6,)),
            DecentralizedConfig(rounds=1),
            rng_factory=RngFactory(5),
        )
        driver.run()

        # A suspects C: gather evidence from A's own chain view.
        accuser = driver.peers["A"]
        suspect = driver.peers["C"]
        evidence = collect_evidence(
            accuser.gateway.node, suspect.address, 1, accuser.model_store_address
        )
        weights = driver.offchain.get_weights(evidence.committed_hash)
        assert verify_evidence(accuser.gateway.node, evidence, weights=weights)

        # The registry admin (the deployer, peer A) bans the suspect.
        registry = driver._registry_address()
        ban_tx = accuser.make_transaction(
            to=registry, method="ban", args={"address": suspect.address, "reason": "abnormal model"}
        )
        driver.network.broadcast_transaction(accuser.address, ban_tx)
        driver.network.start_mining()
        driver._wait_until(
            lambda: accuser.gateway.call(registry, "is_banned", address=suspect.address),
            "ban transaction",
        )
        driver.network.stop_mining()
        assert not accuser.gateway.call(registry, "is_member", address=suspect.address)

        # Banned peer's future submissions revert on-chain.
        submit_tx = suspect.make_transaction(
            to=suspect.model_store_address,
            method="submit_model",
            args={"round_id": 99, "weights_hash": "0xdead", "num_samples": 10},
        )
        driver.network.broadcast_transaction(suspect.address, submit_tx)
        driver.network.start_mining()
        driver._wait_until(
            lambda: any(
                peer.gateway.node.receipt_of(submit_tx.tx_hash) is not None
                for peer in driver.peers.values()
            ),
            "banned submission mined",
        )
        driver.network.stop_mining()
        receipts = [
            peer.gateway.node.receipt_of(submit_tx.tx_hash)
            for peer in driver.peers.values()
            if peer.gateway.node.receipt_of(submit_tx.tx_hash) is not None
        ]
        assert receipts and all(receipt.failed for receipt in receipts)


class TestFivePeerCohort:
    """The architecture is not hard-coded to three peers."""

    def test_five_peers_run(self):
        peers = tuple("ABCDE")
        data_rng = np.random.default_rng(0)
        driver = DecentralizedFL(
            [PeerConfig(peer_id=p, train_config=TrainConfig(epochs=1), training_time=5.0) for p in peers],
            {p: easy_dataset(data_rng, n=60) for p in peers},
            {p: easy_dataset(data_rng, n=40) for p in peers},
            lambda rng: Sequential([Dense(2, name="out")]).build(np.random.default_rng(42), (6,)),
            DecentralizedConfig(rounds=1),
            rng_factory=RngFactory(11),
        )
        logs = driver.run()
        assert len(logs) == 5
        for log in logs:
            # 2^5 - 1 = 31 subsets scored per peer.
            assert len(log.combination_accuracy) == 31

    def test_wait_for_two_of_five(self):
        peers = tuple("ABCDE")
        data_rng = np.random.default_rng(0)
        times = [5.0, 10.0, 120.0, 240.0, 360.0]
        driver = DecentralizedFL(
            [
                PeerConfig(
                    peer_id=p,
                    train_config=TrainConfig(epochs=1),
                    training_time=t,
                    training_time_jitter=0.0,
                )
                for p, t in zip(peers, times)
            ],
            {p: easy_dataset(data_rng, n=60) for p in peers},
            {p: easy_dataset(data_rng, n=40) for p in peers},
            lambda rng: Sequential([Dense(2, name="out")]).build(np.random.default_rng(42), (6,)),
            DecentralizedConfig(rounds=1, policy=WaitForK(2)),
            rng_factory=RngFactory(13),
        )
        logs = driver.run()
        models_used = {log.peer_id: log.models_used for log in logs}
        # The fast peers proceed with ~2 models; nobody waits for all five.
        assert models_used["A"] < 5
