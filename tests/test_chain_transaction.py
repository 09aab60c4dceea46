"""Tests for transactions and receipts."""

from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import transaction as transaction_module
from repro.chain.crypto import KeyPair
from repro.chain.transaction import VALIDATION_STATS, Receipt, Transaction
from repro.errors import InvalidSignatureError, SerializationError
from repro.utils.hashing import keccak_like
from repro.utils.serialization import canonical_dumps, canonical_loads
from test_chain_network import build_network
from test_property_based import json_values


@pytest.fixture
def alice():
    return KeyPair.from_seed("alice")


@pytest.fixture
def bob():
    return KeyPair.from_seed("bob")


def make_tx(sender_kp, **overrides):
    defaults = dict(
        sender=sender_kp.address,
        to=KeyPair.from_seed("receiver").address,
        nonce=0,
        value=100,
    )
    defaults.update(overrides)
    return Transaction(**defaults)


class TestSigning:
    def test_sign_and_verify(self, alice):
        tx = make_tx(alice).sign_with(alice)
        assert tx.verify_signature()

    def test_unsigned_fails_verification(self, alice):
        assert not make_tx(alice).verify_signature()

    def test_wrong_keypair_rejected_at_signing(self, alice, bob):
        with pytest.raises(InvalidSignatureError):
            make_tx(alice).sign_with(bob)

    def test_mutation_after_signing_detected(self, alice):
        tx = make_tx(alice).sign_with(alice)
        tx.value = 999_999
        assert not tx.verify_signature()

    def test_args_mutation_detected(self, alice):
        tx = make_tx(alice, method="submit", args={"round_id": 1}).sign_with(alice)
        with pytest.raises(TypeError):
            tx.args["round_id"] = 2
        assert tx.args["round_id"] == 1
        assert tx.verify_signature()


def _edits(container):
    """Every in-place edit a dict or list would accept, as thunks."""
    if isinstance(container, MappingProxyType):
        return [
            lambda: container.__setitem__("k", 1),
            lambda: container.__delitem__(next(iter(container), "k")),
            lambda: container.update({"k": 1}),
            lambda: container.pop("k", None),
            lambda: container.clear(),
        ]
    return [
        lambda: container.__setitem__(0, 1),
        lambda: container.__delitem__(0),
        lambda: container.append(1),
        lambda: container.extend([1]),
        lambda: container.clear(),
    ]


def _containers(value):
    """``value`` and every container nested in it, sealed or not."""
    if isinstance(value, (dict, MappingProxyType)):
        yield value
        for item in value.values():
            yield from _containers(item)
    elif isinstance(value, (list, tuple)):
        yield value
        for item in value:
            yield from _containers(item)


def assert_sealed(value):
    for container in _containers(value):
        assert isinstance(container, (MappingProxyType, tuple))
        for edit in _edits(container):
            with pytest.raises((TypeError, AttributeError)):
                edit()


class TestTamperContract:
    """The module docstring's contract, clause by clause."""

    NESTED = {"round_id": 1, "tags": ["a", "b"], "meta": {"k": [1, {"deep": 2}]}}

    def test_assigning_any_signed_field_fails_verification(self, alice):
        replacements = {
            "to": alice.address, "nonce": 9, "value": 1, "gas_limit": 5, "gas_price": 7,
            "method": "other", "args": {"round_id": 2}, "data": b"x",
            "public_bundle": KeyPair.from_seed("mallory").public_bundle,
        }
        for name, value in replacements.items():
            tx = make_tx(alice, method="submit", args={"round_id": 1}).sign_with(alice)
            assert tx.verify_signature()
            setattr(tx, name, value)
            assert not tx.verify_signature(), name

    def test_nested_edits_raise_and_leave_the_transaction_verifying(self, alice):
        tx = make_tx(alice, method="submit", args=self.NESTED).sign_with(alice)
        tx_hash = tx.tx_hash
        with pytest.raises(TypeError):
            tx.args["meta"]["k"][1]["deep"] = 3
        with pytest.raises(TypeError):
            tx.args["tags"][0] = "z"
        with pytest.raises(TypeError):
            del tx.args["meta"]["k"]
        assert_sealed(tx.args)
        assert tx.verify_signature() and tx.tx_hash == tx_hash

    def test_public_bundle_edits_raise(self, alice):
        tx = make_tx(alice).sign_with(alice)
        with pytest.raises(TypeError):
            tx.public_bundle["pub"] = KeyPair.from_seed("mallory").pub.hex()
        assert_sealed(tx.public_bundle)
        assert tx.verify_signature()

    def test_editing_the_source_dict_changes_nothing(self, alice):
        """Regression: ``Transaction(args=d)`` and ``from_dict(payload)`` kept
        the caller's dict, so editing it rewrote an unsigned transaction."""
        source = {"round_id": 1, "tags": ["a"], "meta": {"k": 1}}
        tx = make_tx(alice, method="submit", args=source)
        payload = tx.signing_payload()
        source["round_id"] = 2
        source["tags"].append("b")
        source["meta"]["k"] = 2
        assert tx.signing_payload() == payload
        tx.sign_with(alice)
        source["round_id"] = 3
        source["meta"].clear()
        assert tx.signing_payload() == payload
        assert tx.verify_signature()

    def test_editing_a_decoded_payload_changes_nothing(self, alice):
        wire = make_tx(alice, method="submit", args=self.NESTED).sign_with(alice).to_dict()
        decoded = canonical_loads(canonical_dumps(wire))
        restored = Transaction.from_dict(decoded)
        tx_hash = restored.tx_hash
        decoded["args"]["round_id"] = 2
        decoded["args"]["meta"]["k"].append(3)
        decoded["public_bundle"]["pub"] = "00"
        assert restored.tx_hash == tx_hash
        assert restored.verify_signature()

    @pytest.mark.parametrize(
        "value", [{"w": np.zeros(2)}, {"s": {1, 2}}, {"o": object()}, {"n": [bytearray(b"x")]}]
    )
    def test_unsupported_value_rejected_at_assignment(self, alice, value):
        with pytest.raises(SerializationError):
            make_tx(alice, args=value)
        tx = make_tx(alice).sign_with(alice)
        with pytest.raises(SerializationError):
            tx.args = value
        with pytest.raises(SerializationError):
            tx.public_bundle = value
        assert tx.verify_signature()  # a refused assignment assigns nothing


_args = st.dictionaries(st.text(max_size=6), json_values, max_size=4)


class TestSealedEncoding:
    @given(_args)
    @settings(max_examples=60, deadline=None)
    def test_sealed_bytes_equal_the_plain_encoding(self, args):
        alice = KeyPair.from_seed("alice")
        plain = dict(
            sender=alice.address, to=alice.address, nonce=3, value=5, gas_limit=10_000_000,
            gas_price=1, method="m", args=args, data=b"\x01",
        )
        tx = Transaction(**plain).sign_with(alice)
        payload = canonical_dumps(plain)
        assert tx.signing_payload() == payload
        assert tx.tx_hash == keccak_like(
            payload + canonical_dumps({"sig": tx.signature.to_dict()})
        )
        assert_sealed(tx.args)
        assert_sealed(tx.public_bundle)
        assert tx.verify_signature()

        for wire in (tx.to_dict(), canonical_loads(canonical_dumps(tx.to_dict()))):
            restored = Transaction.from_dict(wire)
            assert restored.tx_hash == tx.tx_hash
            assert restored.args == tx.args
            assert restored.verify_signature()
            assert_sealed(restored.args)
            assert_sealed(restored.public_bundle)


class TestValidationWork:
    """One encode, one hash encode and one crypto check per transaction,
    however many nodes hold it and however often they read it."""

    @pytest.mark.parametrize("n_nodes", [2, 4])
    def test_work_is_per_transaction_not_per_node_or_read(self, monkeypatch, n_nodes):
        calls = []

        def counting_dumps(obj):
            calls.append(1)
            return canonical_dumps(obj)

        monkeypatch.setattr(transaction_module, "canonical_dumps", counting_dumps)
        network, nodes, kps = build_network(n_nodes)
        txs = [
            Transaction(sender=kp.address, to=nodes[0].address, nonce=nonce, value=1 + nonce)
            .sign_with(kp)
            for kp in kps
            for nonce in range(3)
        ]
        # Counted from the signed transaction on: what the network pays.
        VALIDATION_STATS.reset()
        calls.clear()
        for tx in txs:
            network.broadcast_transaction(nodes[0].address, tx)
        network.run_for(1.0)  # gossip reaches every mempool before a block is found
        network.start_mining()
        network.run_until_height(2)
        network.stop_mining()
        network.run_for(5.0)
        assert all(node.receipt_of(tx.tx_hash) for node in nodes for tx in txs)
        assert VALIDATION_STATS.payload_encodes == len(txs)
        assert VALIDATION_STATS.signatures_verified == len(txs)
        assert VALIDATION_STATS.signature_cache_hits >= len(txs) * (n_nodes - 1)
        assert len(calls) == 2 * len(txs)  # the signing payload, and tx_hash's signature part


class TestHashing:
    def test_hash_stable(self, alice):
        tx = make_tx(alice).sign_with(alice)
        assert tx.tx_hash == tx.tx_hash

    def test_hash_covers_fields(self, alice):
        a = make_tx(alice, nonce=0).sign_with(alice)
        b = make_tx(alice, nonce=1).sign_with(alice)
        assert a.tx_hash != b.tx_hash

    def test_hash_covers_signature(self, alice):
        unsigned = make_tx(alice)
        unsigned_hash = unsigned.tx_hash
        signed_hash = unsigned.sign_with(alice).tx_hash
        assert unsigned_hash != signed_hash


class TestClassification:
    def test_create_detection(self, alice):
        tx = make_tx(alice, to=None, args={"contract": "model_store"})
        assert tx.is_create
        assert not tx.is_call

    def test_call_detection(self, alice):
        tx = make_tx(alice, method="submit_model")
        assert tx.is_call
        assert not tx.is_create

    def test_plain_transfer(self, alice):
        tx = make_tx(alice)
        assert not tx.is_call
        assert not tx.is_create

    def test_max_cost(self, alice):
        tx = make_tx(alice, value=50, gas_limit=1000, gas_price=2)
        assert tx.max_cost() == 50 + 2000


class TestWireFormat:
    def test_round_trip_preserves_signature(self, alice):
        tx = make_tx(alice, method="submit_model", args={"round_id": 3}, data=b"\x01\x02").sign_with(alice)
        restored = Transaction.from_dict(tx.to_dict())
        assert restored.verify_signature()
        assert restored.tx_hash == tx.tx_hash
        assert restored.args == {"round_id": 3}
        assert restored.data == b"\x01\x02"

    def test_round_trip_unsigned(self, alice):
        tx = make_tx(alice)
        restored = Transaction.from_dict(tx.to_dict())
        assert restored.signature is None
        assert restored.sender == tx.sender


class TestReceipt:
    def test_failed_property(self):
        ok = Receipt(tx_hash="0xaa", success=True, gas_used=21000)
        bad = Receipt(tx_hash="0xbb", success=False, gas_used=21000)
        assert not ok.failed
        assert bad.failed
