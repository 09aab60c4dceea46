"""Tests for the block tree and fork choice."""

import pytest

from repro.chain.block import Block, BlockHeader, make_genesis
from repro.chain.chainstore import ChainStore
from repro.errors import InvalidBlockError, UnknownBlockError


def child_of(parent: Block, difficulty: int = 1, tag: str = "") -> Block:
    header = BlockHeader(
        parent_hash=parent.block_hash,
        number=parent.number + 1,
        timestamp=parent.header.timestamp + 1.0,
        miner="0x" + "aa" * 20,
        difficulty=difficulty,
        tx_root="0x" + "00" * 32,
        state_root="0x" + "00" * 32,
        extra=tag,
    )
    return Block(header=header)


@pytest.fixture
def genesis():
    return make_genesis("0x" + "ff" * 32)


@pytest.fixture
def store(genesis):
    return ChainStore(genesis)


class TestBasics:
    def test_genesis_is_head(self, store, genesis):
        assert store.head_hash == genesis.block_hash
        assert store.height == 0
        assert len(store) == 1

    def test_invalid_genesis_rejected(self, genesis):
        bad = child_of(genesis)  # number 1 is not a genesis
        with pytest.raises(InvalidBlockError):
            ChainStore(bad)

    def test_get_unknown_raises(self, store):
        with pytest.raises(UnknownBlockError):
            store.get("0xmissing")

    def test_extend_head(self, store, genesis):
        block = child_of(genesis)
        reorg = store.add(block)
        assert store.head_hash == block.block_hash
        assert reorg is not None
        assert reorg.rolled_back == []
        assert reorg.applied == [block.block_hash]

    def test_duplicate_add_noop(self, store, genesis):
        block = child_of(genesis)
        store.add(block)
        assert store.add(block) is None

    def test_unknown_parent_rejected(self, store, genesis):
        orphan = child_of(child_of(genesis))
        with pytest.raises(UnknownBlockError):
            store.add(orphan)

    def test_bad_number_rejected(self, store, genesis):
        block = child_of(genesis)
        block.header.number = 7
        with pytest.raises(InvalidBlockError):
            store.add(block)


class TestForkChoice:
    def test_heavier_branch_wins(self, store, genesis):
        light = child_of(genesis, difficulty=1, tag="light")
        heavy = child_of(genesis, difficulty=5, tag="heavy")
        store.add(light)
        reorg = store.add(heavy)
        assert store.head_hash == heavy.block_hash
        assert reorg.rolled_back == [light.block_hash]
        assert reorg.applied == [heavy.block_hash]
        assert reorg.common_ancestor == genesis.block_hash

    def test_first_seen_wins_ties(self, store, genesis):
        first = child_of(genesis, tag="first")
        second = child_of(genesis, tag="second")
        store.add(first)
        assert store.add(second) is None  # equal difficulty: no switch
        assert store.head_hash == first.block_hash

    def test_longer_branch_beats_shorter(self, store, genesis):
        side = child_of(genesis, tag="side")
        store.add(side)
        main1 = child_of(genesis, tag="main1")
        store.add(main1)  # tie, side stays head
        main2 = child_of(main1, tag="main2")
        reorg = store.add(main2)
        assert store.head_hash == main2.block_hash
        assert reorg.rolled_back == [side.block_hash]
        assert reorg.applied == [main1.block_hash, main2.block_hash]
        assert reorg.depth == 1

    def test_total_difficulty_accumulates(self, store, genesis):
        a = child_of(genesis, difficulty=3)
        b = child_of(a, difficulty=4)
        store.add(a)
        store.add(b)
        expected = genesis.header.difficulty + 3 + 4
        assert store.total_difficulty(b.block_hash) == expected


class TestQueries:
    def test_canonical_chain_order(self, store, genesis):
        a = child_of(genesis)
        b = child_of(a)
        store.add(a)
        store.add(b)
        chain = store.canonical_chain()
        assert [blk.number for blk in chain] == [0, 1, 2]
        assert chain[-1].block_hash == store.head_hash

    def test_canonical_hash_by_height(self, store, genesis):
        a = child_of(genesis)
        store.add(a)
        assert store.canonical_hash(0) == genesis.block_hash
        assert store.canonical_hash(1) == a.block_hash
        assert store.canonical_hash(2) is None  # above the head
        assert store.canonical_hash(-1) is None

    def test_canonical_hash_forgets_heights_a_reorg_abandons(self, store, genesis):
        light = [child_of(genesis, tag="l1")]
        for index in (2, 3):
            light.append(child_of(light[-1], tag=f"l{index}"))
        for block in light:
            store.add(block)
        assert store.canonical_hash(3) == light[-1].block_hash
        heavy = child_of(genesis, difficulty=10, tag="h1")  # shorter, heavier
        reorg = store.add(heavy)
        assert reorg.rolled_back == [block.block_hash for block in reversed(light)]
        assert store.canonical_hash(1) == heavy.block_hash
        assert store.canonical_hash(2) is None
        assert store.canonical_hash(3) is None

    def test_is_canonical(self, store, genesis):
        winner = child_of(genesis, difficulty=5, tag="w")
        loser = child_of(genesis, difficulty=1, tag="l")
        store.add(loser)
        store.add(winner)
        assert store.is_canonical(winner.block_hash)
        assert not store.is_canonical(loser.block_hash)
        assert store.is_canonical(genesis.block_hash)

    def test_deep_reorg_path(self, store, genesis):
        # Build a 2-block side chain, then a heavier 2-block main chain.
        s1 = child_of(genesis, tag="s1")
        s2 = child_of(s1, tag="s2")
        store.add(s1)
        store.add(s2)
        m1 = child_of(genesis, difficulty=10, tag="m1")
        m2 = child_of(m1, difficulty=10, tag="m2")
        store.add(m1)  # 10 > 2: immediate switch
        reorg = store.add(m2)
        assert reorg.applied == [m2.block_hash]
        assert store.head.number == 2
        assert store.is_canonical(m1.block_hash)
