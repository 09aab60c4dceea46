"""Tests for operating mode 2 (global vote) and the reputation extension."""

import numpy as np
import pytest

from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import PeerConfig
from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl.trainer import TrainConfig
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.utils.rng import RngFactory


def easy_dataset(rng, n=100):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y)


def shared_builder(rng):
    return Sequential([Dense(6, name="h"), ReLU(), Dense(2, name="out")]).build(
        np.random.default_rng(42), (4,)
    )


def make_driver(rounds=2, seed=7, epochs=1, **config_kwargs):
    peers = ("A", "B", "C")
    data_rng = np.random.default_rng(0)
    return DecentralizedFL(
        [
            PeerConfig(
                peer_id=p,
                train_config=TrainConfig(epochs=epochs, learning_rate=0.1),
                training_time=10.0,
                training_time_jitter=2.0,
            )
            for p in peers
        ],
        {p: easy_dataset(data_rng) for p in peers},
        {p: easy_dataset(data_rng, n=60) for p in peers},
        shared_builder,
        DecentralizedConfig(rounds=rounds, **config_kwargs),
        rng_factory=RngFactory(seed),
    )


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            DecentralizedConfig(mode="oracle")

    def test_valid_modes(self):
        assert DecentralizedConfig(mode="personalized").mode == "personalized"
        assert DecentralizedConfig(mode="global_vote").mode == "global_vote"


class TestGlobalVoteMode:
    def test_all_peers_adopt_same_model(self):
        driver = make_driver(rounds=2, mode="global_vote")
        driver.run()
        x = np.random.default_rng(5).normal(size=(4, 4))
        outs = [peer.client.model.predict(x) for peer in driver.peers.values()]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_finalized_hash_on_chain(self):
        driver = make_driver(rounds=1, mode="global_vote")
        driver.run()
        hashes = {
            peer.gateway.call(peer.coordinator_address, "finalized_hash", round_id=1)
            for peer in driver.peers.values()
        }
        assert len(hashes) == 1
        final_hash = hashes.pop()
        assert final_hash is not None
        # The finalized aggregate is retrievable off-chain.
        assert driver.offchain.get_weights(final_hash)

    def test_round_logs_use_full_membership(self):
        driver = make_driver(rounds=1, mode="global_vote")
        logs = driver.run()
        for log in logs:
            assert log.chosen_combination == ("A", "B", "C")
            assert log.models_used == 3
            assert 0.0 <= log.chosen_accuracy <= 1.0

    def test_vote_tallies_recorded(self):
        driver = make_driver(rounds=1, mode="global_vote")
        driver.run()
        peer = driver.peers["A"]
        tally = peer.gateway.call(peer.coordinator_address, "vote_tally", round_id=1)
        assert sum(tally.values()) == 3  # every peer voted

    def test_accuracy_comparable_to_personalized(self):
        global_driver = make_driver(rounds=2, mode="global_vote")
        global_logs = global_driver.run()
        personal_driver = make_driver(rounds=2, mode="personalized")
        personal_logs = personal_driver.run()
        g = np.mean([log.chosen_accuracy for log in global_logs[-3:]])
        p = np.mean([log.chosen_accuracy for log in personal_logs[-3:]])
        assert abs(g - p) < 0.2


class TestReputationExtension:
    def test_scores_tracked_for_honest_peers(self):
        driver = make_driver(rounds=2, epochs=5, enable_reputation=True)
        driver.run()
        for peer_id in ("A", "B", "C"):
            score = driver.reputation_of(peer_id)
            # Honest IID peers rate each other positively: score >= initial.
            assert score >= 100, f"{peer_id} score {score}"

    def test_abnormal_peer_loses_reputation(self):
        driver = make_driver(rounds=2, epochs=5, enable_reputation=True)

        # Sabotage C's submissions: invert the classifier head, producing a
        # systematically wrong model (accuracy ~= 1 - honest accuracy).
        peer_c = driver.peers["C"]
        original = peer_c.train_and_commit

        def corrupted(round_id, nonce):
            update, tx = original(round_id, nonce)
            bad = {key: value.copy() for key, value in update.weights.items()}
            bad["out/W"] = -bad["out/W"]
            bad["out/b"] = -bad["out/b"]
            update.weights = bad
            commitment = driver.offchain.put_weights(bad)
            new_tx = peer_c.make_transaction(
                to=peer_c.model_store_address,
                method="submit_model",
                args={
                    "round_id": round_id,
                    "weights_hash": commitment,
                    "num_samples": update.num_samples,
                    "model_kind": peer_c.config.model_kind,
                    "reported_accuracy": update.reported_accuracy,
                },
                data=commitment.encode("ascii"),
                nonce=nonce,
            )
            del tx  # the honest commitment is never broadcast
            return update, new_tx

        peer_c.train_and_commit = corrupted
        driver.run()
        assert driver.reputation_of("C") < 100
        assert driver.reputation_of("A") >= 100

    def test_reputation_consistent_across_viewers(self):
        driver = make_driver(rounds=1, enable_reputation=True)
        driver.run()
        scores = {
            viewer: driver.reputation_of("B", viewer_id=viewer) for viewer in ("A", "B", "C")
        }
        assert len(set(scores.values())) == 1

    def test_reputation_off_by_default(self):
        driver = make_driver(rounds=1)
        driver.run()
        # Nobody rated anybody: everybody sits at the initial score.
        for peer_id in ("A", "B", "C"):
            assert driver.reputation_of(peer_id) == 100
