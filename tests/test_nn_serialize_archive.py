"""Tests for the cached WeightArchive and the malformed-payload guard."""

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.nn.serialize import (
    SERIALIZATION_STATS,
    WeightArchive,
    as_archive,
    weights_from_bytes,
    weights_hash,
    weights_size_bytes,
    weights_to_bytes,
)
from repro.utils.hashing import keccak_like
from repro.utils.serialization import canonical_dumps


@pytest.fixture
def weights(rng):
    return {"a/W": rng.normal(size=(8, 4)), "a/b": rng.normal(size=(4,))}


class TestMalformedPayloadGuard:
    """JSON-shaped payloads — what the retired v1 codec wrote, and every
    malformed variant its decoder used to tell apart — carry no v2 magic
    and get the one typed rejection, never a bare ``json``/``KeyError``.
    """

    def test_dict_without_weights_key_rejected_as_non_archive(self):
        payload = canonical_dumps({"version": 1})
        with pytest.raises(SerializationError, match="not a weight archive"):
            weights_from_bytes(payload)

    def test_guard_fires_before_version_check(self):
        payload = canonical_dumps({"version": 999})
        with pytest.raises(SerializationError, match="not a weight archive"):
            weights_from_bytes(payload)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(SerializationError, match="not a weight archive"):
            weights_from_bytes(canonical_dumps([1, 2, 3]))

    def test_wrong_version_still_rejected(self, weights):
        payload = canonical_dumps({"version": 999, "weights": weights})
        with pytest.raises(SerializationError, match="not a weight archive"):
            weights_from_bytes(payload)

    def test_non_dict_weights_value_still_rejected(self):
        payload = canonical_dumps({"version": 1, "weights": [1, 2]})
        with pytest.raises(SerializationError, match="not a weight archive"):
            weights_from_bytes(payload)


class TestWeightArchive:
    def test_payload_hash_size_share_one_encoding(self, weights):
        SERIALIZATION_STATS.reset()
        archive = WeightArchive.from_weights(weights)
        assert not archive.encoded
        payload, digest, size = archive.payload, archive.hash, archive.size
        assert SERIALIZATION_STATS.encodes == 1
        # Re-reads stay free.
        archive.payload, archive.hash, archive.size
        assert SERIALIZATION_STATS.encodes == 1
        assert payload == weights_to_bytes(weights)
        assert digest == keccak_like(payload)
        assert size == len(payload)

    def test_matches_free_functions(self, weights):
        archive = WeightArchive.from_weights(weights)
        assert archive.hash == weights_hash(weights)
        assert archive.size == weights_size_bytes(weights)

    def test_from_bytes_decodes_once(self, weights):
        payload = weights_to_bytes(weights)
        SERIALIZATION_STATS.reset()
        archive = WeightArchive.from_bytes(payload)
        assert archive.encoded  # bytes given up front
        first = archive.weights
        second = archive.weights
        assert first is second
        assert SERIALIZATION_STATS.decodes == 1
        np.testing.assert_array_equal(first["a/W"], weights["a/W"])

    def test_round_trip(self, weights):
        restored = WeightArchive.from_bytes(WeightArchive.from_weights(weights).payload)
        for key in weights:
            np.testing.assert_array_equal(restored.weights[key], weights[key])

    def test_copy_weights_detached(self, weights):
        archive = WeightArchive.from_weights(weights)
        copy = archive.copy_weights()
        copy["a/W"] += 1.0
        np.testing.assert_array_equal(archive.weights["a/W"], weights["a/W"])

    def test_as_archive_passthrough(self, weights):
        archive = WeightArchive.from_weights(weights)
        assert as_archive(archive) is archive
        assert as_archive(weights).hash == archive.hash

    def test_empty_archive_rejected(self):
        with pytest.raises(SerializationError):
            WeightArchive()

    def test_inconsistent_pair_unrepresentable(self, weights):
        # Supplying both views could smuggle a decoded dict that does not
        # match the bytes (cache-poisoning vector); the constructor
        # refuses so every archive has a single source of truth.
        payload = weights_to_bytes(weights)
        with pytest.raises(SerializationError, match="exactly one"):
            WeightArchive(weights=weights, payload=payload)

    def test_non_ndarray_weight_rejected(self):
        with pytest.raises(SerializationError):
            WeightArchive.from_weights({"w": [1, 2, 3]}).payload


class TestCodecVersions:
    """The binary v2 codec is the only one; a v1 archive is a typed error."""

    def test_v1_payload_rejected(self, weights):
        v1_archive = canonical_dumps({"version": 1, "weights": weights})
        with pytest.raises(SerializationError, match="not a weight archive"):
            weights_from_bytes(v1_archive)
        with pytest.raises(SerializationError, match="not a weight archive"):
            WeightArchive.from_bytes(v1_archive).weights

    def test_v2_round_trip_preserves_dtype_and_shape(self, rng):
        weights = {
            "f32": rng.normal(size=(3, 5)).astype(np.float32),
            "i64": np.arange(7, dtype=np.int64),
            "scalarish": np.array(3.5),
        }
        restored = weights_from_bytes(weights_to_bytes(weights))
        for key, value in weights.items():
            assert restored[key].dtype == value.dtype
            assert restored[key].shape == value.shape
            np.testing.assert_array_equal(restored[key], value)

    def test_v2_deterministic(self, weights):
        assert weights_to_bytes(weights) == weights_to_bytes(dict(reversed(list(weights.items()))))

    def test_truncated_v2_rejected(self, weights):
        payload = weights_to_bytes(weights)
        with pytest.raises(SerializationError, match="truncated"):
            weights_from_bytes(payload[:-8])

    def test_trailing_garbage_rejected(self, weights):
        payload = weights_to_bytes(weights)
        with pytest.raises(SerializationError, match="trailing"):
            weights_from_bytes(payload + b"\x00")

    def test_object_dtype_rejected_at_encode(self):
        bad = {"w": np.array([{"a": 1}, None], dtype=object)}
        with pytest.raises(SerializationError, match="non-serializable dtype"):
            weights_to_bytes(bad)

    def test_forged_object_dtype_header_raises_serialization_error(self):
        # A hand-forged header declaring an undecodable dtype must surface
        # as SerializationError (the module's error contract), not a raw
        # numpy ValueError from frombuffer.
        import json

        from repro.nn import serialize

        header = json.dumps(
            {"version": 2, "entries": [{"name": "w", "dtype": "object", "shape": [2]}]},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        forged = (
            serialize._V2_MAGIC
            + len(header).to_bytes(serialize._V2_HEADER_LEN_BYTES, "big")
            + header
            + b"\x00" * 16
        )
        with pytest.raises(SerializationError, match="undecodable v2 buffer"):
            weights_from_bytes(forged)
