"""Tests for the content-addressed commitment pipeline.

Pins the headline property of this refactor: one weight serialization per
local model per round on the peer submit path (the seed paid one each for
the off-chain put, the commitment hash, and any size probe), and one
deserialization per distinct blob ever, no matter how many peers fetch it
or how often they poll.
"""

import numpy as np
import pytest

from repro.core.offchain import OffchainStore
from repro.errors import SerializationError
from repro.fl.aggregation import ModelUpdate
from repro.nn.serialize import (
    SERIALIZATION_STATS,
    WeightArchive,
    weights_fingerprint,
    weights_to_bytes,
)

from test_core_decentralized import make_driver


@pytest.fixture
def weights(rng):
    return {"h/W": rng.normal(size=(6, 3)), "h/b": rng.normal(size=(3,))}


class TestOffchainStoreMarshalling:
    def test_put_weights_serializes_once(self, weights):
        store = OffchainStore()
        store.put_weights(weights)
        assert store.serializations == 1
        assert store.puts == 1

    def test_put_archive_reuses_existing_encoding(self, weights):
        store = OffchainStore()
        archive = WeightArchive.from_weights(weights)
        archive.payload  # encoded before the store sees it
        store.put_archive(archive)
        assert store.serializations == 0  # the store triggered no encode

    def test_repeat_fetches_decode_once(self, weights):
        # Raw byte put (a blob replicated from elsewhere): the first fetch
        # decodes, every later fetch hits the decoded-archive cache.
        store = OffchainStore()
        key = store.put(weights_to_bytes(weights))
        for _ in range(5):
            store.get_weights(key)
        assert store.deserializations == 1
        assert store.decode_hits == 4

    def test_put_then_fetch_never_decodes(self, weights):
        # The putter's archive already holds the decoded dict, so even the
        # first fetch is a cache hit.
        store = OffchainStore()
        key = store.put_weights(weights)
        store.get_weights(key)
        assert store.deserializations == 0
        assert store.decode_hits == 1

    def test_fetched_weights_are_detached_copies(self, weights):
        store = OffchainStore()
        key = store.put_weights(weights)
        fetched = store.get_weights(key)
        fetched["h/W"] += 100.0
        np.testing.assert_array_equal(store.get_weights(key)["h/W"], weights["h/W"])

    def test_batched_fetch_shares_read_only_arrays_and_one_fingerprint(self, weights):
        """``fetch_available`` is the many-readers path: no copies, one
        content hash per archive, and arrays nobody can write through."""
        store = OffchainStore()
        key = store.put_weights(weights)
        first = store.fetch_available([key])[key]
        second = store.fetch_available([key, key])[key]
        assert first.fingerprint == second.fingerprint == weights_fingerprint(weights)
        assert np.shares_memory(first["h/W"], second["h/W"])
        with pytest.raises(ValueError):
            first["h/W"][0, 0] = 1.0
        assert store.get_weights(key)["h/W"].flags.writeable  # still detached copies

    def test_corrupted_blob_detected_on_first_materialization(self, weights):
        store = OffchainStore()
        key = store.put(weights_to_bytes(weights))  # raw put: no archive cached
        store._blobs[key] = store._blobs[key][:-1] + b"!"
        with pytest.raises(SerializationError, match="content hash mismatch"):
            store.get_weights(key)

    def test_decoded_cache_is_bounded_lru(self, rng):
        store = OffchainStore(archive_cache_size=2)
        keys = [
            store.put(weights_to_bytes({"w": rng.normal(size=(3, 3))}))
            for _ in range(3)
        ]
        for key in keys:
            store.get_weights(key)
        assert len(store._archives) == 2           # oldest entry evicted
        store.get_weights(keys[0])                 # evicted: decodes again
        assert store.deserializations == 4
        store.get_weights(keys[0])                 # now resident: cache hit
        assert store.deserializations == 4

    def test_reput_refreshes_lru_position(self, rng):
        store = OffchainStore(archive_cache_size=2)
        first = {"w": rng.normal(size=(3, 3))}
        key_a = store.put_weights(first)
        key_b = store.put_weights({"w": rng.normal(size=(3, 3))})
        store.put_weights(first)                   # re-commit: A becomes hot
        store.put_weights({"w": rng.normal(size=(3, 3))})  # evicts B, not A
        store.get_weights(key_a)
        assert store.deserializations == 0         # A stayed resident
        store.get_weights(key_b)
        assert store.deserializations == 1         # B was the one evicted

    def test_cache_size_must_be_positive(self):
        with pytest.raises(SerializationError):
            OffchainStore(archive_cache_size=0)

    def test_failed_put_not_counted_as_serialization(self):
        store = OffchainStore()
        with pytest.raises(SerializationError):
            store.put_weights({"w": [1, 2]})  # not an ndarray: encode fails
        assert store.serializations == 0
        assert store.puts == 0

    def test_failed_get_not_counted_as_deserialization(self):
        store = OffchainStore()
        key = store.put(b"hashes fine, decodes not")
        for _ in range(3):
            with pytest.raises(SerializationError):
                store.get_weights(key)
        assert store.deserializations == 0

    def test_marshalling_stats_reported(self, weights):
        store = OffchainStore()
        key = store.put_weights(weights)
        store.get_weights(key)
        stats = store.marshalling_stats()
        assert stats["serializations"] == 1
        assert stats["puts"] == 1


class TestModelUpdateArchive:
    def test_archive_is_memoized(self, weights):
        update = ModelUpdate(client_id="A", weights=weights, num_samples=10)
        assert update.archive() is update.archive()

    def test_archive_hash_matches_weights(self, weights):
        update = ModelUpdate(client_id="A", weights=weights, num_samples=10)
        assert update.archive().hash == WeightArchive.from_weights(weights).hash


class TestOneSerializationPerModelPerRound:
    def test_decentralized_round_serializes_each_model_once(self):
        driver = make_driver(rounds=1)
        driver.deploy_contracts()
        SERIALIZATION_STATS.reset()
        store = driver.offchain
        base_serializations = store.serializations
        driver.run_round(1)
        n_models = len(driver.peers)
        # The store triggered exactly one encode per local model...
        assert store.serializations - base_serializations == n_models
        # ...and nothing else in the round serialized weights either.
        assert SERIALIZATION_STATS.encodes == n_models
        # Every cross-peer fetch was served from the decoded-archive cache.
        assert store.deserializations == 0
        assert store.decode_hits > 0

    def test_submissions_carry_size_bytes_from_same_encoding(self):
        driver = make_driver(rounds=1)
        driver.run()
        peer = driver.peers["A"]
        for record in peer.visible_submissions(1):
            assert record["size_bytes"] > 0
        stats = driver.chain_stats()
        assert stats["offchain_marshalling"]["serializations"] == len(driver.peers)
