"""Tests for blocks, headers, and genesis construction."""

import pytest

from repro.chain.block import Block, BlockHeader, GENESIS_PARENT, make_genesis
from repro.chain.crypto import KeyPair
from repro.chain.transaction import Transaction


def make_header(**overrides) -> BlockHeader:
    defaults = dict(
        parent_hash="0x" + "aa" * 32,
        number=5,
        timestamp=100.0,
        miner="0x" + "bb" * 20,
        difficulty=10,
        tx_root="0x" + "cc" * 32,
        state_root="0x" + "dd" * 32,
    )
    defaults.update(overrides)
    return BlockHeader(**defaults)


def signed_tx(seed="a", nonce=0):
    kp = KeyPair.from_seed(seed)
    return Transaction(sender=kp.address, to=None, nonce=nonce, args={"contract": "x"}).sign_with(kp)


class TestBlockHeader:
    def test_hash_stable(self):
        header = make_header()
        assert header.block_hash == header.block_hash

    def test_hash_covers_every_field(self):
        base = make_header()
        for field_name, new_value in [
            ("parent_hash", "0x" + "ee" * 32),
            ("number", 6),
            ("timestamp", 101.0),
            ("miner", "0x" + "ff" * 20),
            ("difficulty", 11),
            ("tx_root", "0x" + "ee" * 32),
            ("state_root", "0x" + "ee" * 32),
            ("gas_used", 100),
            ("extra", "tag"),
        ]:
            changed = make_header(**{field_name: new_value})
            assert changed.block_hash != base.block_hash, field_name

    def test_nonce_changes_hash_not_payload(self):
        a, b = make_header(), make_header()
        b.nonce = 12345
        assert a.sealing_payload() == b.sealing_payload()
        assert a.block_hash != b.block_hash

    def test_assigning_any_field_drops_the_memoized_hash(self):
        """The hash is computed once per header, so every assignment —
        sealing a nonce, or tampering after the fact — must forget it."""
        for field_name, new_value in [
            ("parent_hash", "0x" + "ee" * 32),
            ("number", 6),
            ("timestamp", 101.0),
            ("miner", "0x" + "ff" * 20),
            ("difficulty", 11),
            ("tx_root", "0x" + "ee" * 32),
            ("state_root", "0x" + "ee" * 32),
            ("gas_used", 100),
            ("gas_limit", 7),
            ("nonce", 9),
            ("extra", "tag"),
        ]:
            header = make_header()
            before = header.block_hash  # memoized from here on
            setattr(header, field_name, new_value)
            assert header.block_hash != before, field_name
            assert header.block_hash == make_header(**{field_name: new_value}).block_hash
            setattr(header, field_name, getattr(make_header(), field_name))
            assert header.block_hash == before, field_name

    def test_memoized_hash_survives_copy_and_round_trip(self):
        import copy

        header = make_header(nonce=3)
        expected = header.block_hash
        assert copy.copy(header).block_hash == expected
        assert BlockHeader.from_dict(header.to_dict()).block_hash == expected
        clone = copy.deepcopy(header)
        clone.nonce = 4
        assert clone.block_hash != expected and header.block_hash == expected
        assert header == make_header(nonce=3)  # the memo is not a field


class TestBlockBody:
    def test_tx_root_commits_to_body(self):
        block = Block(header=make_header(), transactions=[signed_tx("a"), signed_tx("b")])
        block.header.tx_root = block.compute_tx_root()
        assert block.body_matches_header()

    def test_body_tamper_detected(self):
        block = Block(header=make_header(), transactions=[signed_tx("a")])
        block.header.tx_root = block.compute_tx_root()
        block.transactions.append(signed_tx("b"))
        assert not block.body_matches_header()

    def test_tx_order_matters(self):
        txs = [signed_tx("a"), signed_tx("b")]
        forward = Block(header=make_header(), transactions=txs)
        backward = Block(header=make_header(), transactions=list(reversed(txs)))
        assert forward.compute_tx_root() != backward.compute_tx_root()

    def test_empty_body_root(self):
        block = Block(header=make_header())
        block.header.tx_root = block.compute_tx_root()
        assert block.body_matches_header()

    def test_convenience_accessors(self):
        block = Block(header=make_header(number=7))
        assert block.number == 7
        assert block.block_hash == block.header.block_hash


class TestGenesis:
    def test_genesis_shape(self):
        genesis = make_genesis("0x" + "11" * 32, timestamp=5.0, difficulty=3)
        assert genesis.number == 0
        assert genesis.header.parent_hash == GENESIS_PARENT
        assert genesis.header.timestamp == 5.0
        assert genesis.header.difficulty == 3
        assert genesis.transactions == []
        assert genesis.body_matches_header()

    def test_genesis_deterministic(self):
        a = make_genesis("0x" + "11" * 32)
        b = make_genesis("0x" + "11" * 32)
        assert a.block_hash == b.block_hash

    def test_genesis_state_root_matters(self):
        a = make_genesis("0x" + "11" * 32)
        b = make_genesis("0x" + "22" * 32)
        assert a.block_hash != b.block_hash


@pytest.mark.parametrize("n_txs", [0, 1, 2, 5])
def test_tx_hash_leaves_match_count(n_txs):
    txs = [signed_tx(str(i), nonce=i) for i in range(n_txs)]
    block = Block(header=make_header(), transactions=txs)
    leaves = block.tx_hashes()
    assert len(leaves) == n_txs
    assert all(len(leaf) == 32 for leaf in leaves)
