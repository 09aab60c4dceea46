"""Tests for the full node: execution, mining, import, reorgs."""

import pytest

from repro.chain.crypto import KeyPair
from repro.chain.gas import intrinsic_gas
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.errors import InvalidBlockError, MempoolError


@pytest.fixture
def alice(keypairs):
    return keypairs["A"]


@pytest.fixture
def bob(keypairs):
    return keypairs["B"]


def transfer_tx(node, sender_kp, to, value, gas_price=1):
    tx = Transaction(
        sender=sender_kp.address,
        to=to,
        nonce=node.next_nonce_for(sender_kp.address),
        value=value,
        gas_price=gas_price,
    )
    return tx.sign_with(sender_kp)


def rebuilt_root(state: WorldState) -> str:
    """Root of a detached replica rebuilt from ``state``'s accounts: no
    cached hash, no cached root."""
    return WorldState.from_account_dicts(state.export_account_dicts()).state_root()


def mine_one(node, timestamp=None):
    """Build, seal (difficulty 1), and import one block."""
    ts = timestamp if timestamp is not None else node.head.header.timestamp + 13.0
    block = node.build_block_candidate(ts, difficulty=1)
    node.seal_and_import(block, nonce=0)
    return block


class TestGenesis:
    def test_nodes_share_genesis(self, three_nodes):
        hashes = {node.head.block_hash for node in three_nodes.values()}
        assert len(hashes) == 1

    def test_allocations_present(self, node, alice):
        assert node.balance_of(alice.address) == 10**15


class TestTransfers:
    def test_value_moves(self, node, alice, bob):
        node.submit_transaction(transfer_tx(node, alice, bob.address, 1000))
        mine_one(node)
        assert node.balance_of(bob.address) == 10**15 + 1000

    def test_fees_paid_to_miner(self, node, alice, bob):
        # The node itself (A) mines, so A pays fees to itself; send from B.
        tx = transfer_tx(node, bob, alice.address, 0, gas_price=3)
        node.submit_transaction(tx)
        before_b = node.balance_of(bob.address)
        mine_one(node)
        receipt = node.receipt_of(tx.tx_hash)
        assert receipt is not None and receipt.success
        fee = receipt.gas_used * 3
        assert receipt.gas_used == intrinsic_gas(b"")
        assert node.balance_of(bob.address) == before_b - fee

    def test_block_reward_credited(self, node, alice):
        before = node.balance_of(alice.address)
        mine_one(node)
        assert node.balance_of(alice.address) == before + node.config.block_reward

    def test_nonce_advances(self, node, alice, bob):
        node.submit_transaction(transfer_tx(node, alice, bob.address, 1))
        node.submit_transaction(transfer_tx(node, alice, bob.address, 2))
        mine_one(node)
        assert node.nonce_of(alice.address) == 2

    def test_next_nonce_counts_pending(self, node, alice, bob):
        assert node.next_nonce_for(alice.address) == 0
        node.submit_transaction(transfer_tx(node, alice, bob.address, 1))
        assert node.next_nonce_for(alice.address) == 1

    def test_mempool_cleared_after_mining(self, node, alice, bob):
        node.submit_transaction(transfer_tx(node, alice, bob.address, 1))
        assert len(node.mempool) == 1
        mine_one(node)
        assert len(node.mempool) == 0


class TestContracts:
    def test_deploy_and_call_via_blocks(self, node, alice):
        deploy = Transaction(
            sender=alice.address,
            to=None,
            nonce=node.next_nonce_for(alice.address),
            args={"contract": "participant_registry", "open_enrollment": True},
        ).sign_with(alice)
        node.submit_transaction(deploy)
        mine_one(node)
        receipt = node.receipt_of(deploy.tx_hash)
        assert receipt.success
        registry = receipt.contract_address
        assert node.has_contract(registry)

        register = Transaction(
            sender=alice.address,
            to=registry,
            nonce=node.next_nonce_for(alice.address),
            method="register",
            args={"display_name": "A"},
        ).sign_with(alice)
        node.submit_transaction(register)
        mine_one(node)
        assert node.receipt_of(register.tx_hash).success
        assert node.call_contract(registry, "is_member", address=alice.address)

    def test_reverted_call_consumes_nonce_but_rolls_back(self, node, alice):
        deploy = Transaction(
            sender=alice.address,
            to=None,
            nonce=0,
            args={"contract": "participant_registry", "open_enrollment": False},
        ).sign_with(alice)
        node.submit_transaction(deploy)
        mine_one(node)
        registry = node.receipt_of(deploy.tx_hash).contract_address

        register = Transaction(
            sender=alice.address,
            to=registry,
            nonce=node.next_nonce_for(alice.address),
            method="register",
            args={},
        ).sign_with(alice)
        node.submit_transaction(register)
        mine_one(node)
        receipt = node.receipt_of(register.tx_hash)
        assert receipt.failed
        assert "enrollment closed" in receipt.revert_reason
        assert node.nonce_of(alice.address) == 2  # nonce still consumed
        assert not node.call_contract(registry, "is_member", address=alice.address)


class TestBlockImport:
    def test_peer_accepts_mined_block(self, three_nodes, alice, bob):
        a, b = three_nodes["A"], three_nodes["B"]
        a.submit_transaction(transfer_tx(a, alice, bob.address, 500))
        block = mine_one(a)
        b.import_block(block)
        assert b.head.block_hash == block.block_hash
        assert b.balance_of(bob.address) == 10**15 + 500

    def test_tampered_block_rejected(self, three_nodes, alice, bob):
        a, b = three_nodes["A"], three_nodes["B"]
        a.submit_transaction(transfer_tx(a, alice, bob.address, 500))
        block = mine_one(a)
        block.transactions[0].value = 999_999  # body no longer matches root
        with pytest.raises(InvalidBlockError):
            b.import_block(block)

    def test_orphan_block_adopted_when_parent_arrives(self, three_nodes):
        a, b = three_nodes["A"], three_nodes["B"]
        block1 = mine_one(a)
        block2 = mine_one(a)
        b.import_block(block2)  # parent unknown: parked
        assert b.height == 0
        b.import_block(block1)  # parent arrives: both applied
        assert b.height == 2

    def test_timestamp_must_increase(self, node):
        block = node.build_block_candidate(node.head.header.timestamp + 1.0, difficulty=1)
        block.header.timestamp = node.head.header.timestamp  # violate rule
        block.header.tx_root = block.compute_tx_root()
        with pytest.raises(InvalidBlockError):
            node.import_block(block)

    def test_state_root_mismatch_detected(self, node, alice, bob):
        block = node.build_block_candidate(13.0, difficulty=1)
        block.header.state_root = "0x" + "de" * 32
        with pytest.raises(InvalidBlockError):
            node.seal_and_import(block, nonce=0)

    def test_state_root_mismatch_leaves_node_consistent(self, node, alice, bob):
        # A rejected block must not become the head: state and store stay
        # on the old branch and the node keeps mining.
        tx = transfer_tx(node, alice, bob.address, 5)
        node.submit_transaction(tx)
        bad = node.build_block_candidate(13.0, difficulty=1)
        bad.header.state_root = "0x" + "de" * 32
        with pytest.raises(InvalidBlockError):
            node.seal_and_import(bad, nonce=0)
        assert node.height == 0
        assert node.head.block_hash == node.store.genesis_hash
        assert node.balance_of(bob.address) == 10**15
        assert tx.tx_hash in node.mempool  # not consumed by the bad block
        good = mine_one(node, timestamp=14.0)
        assert node.head.block_hash == good.block_hash
        assert node.balance_of(bob.address) == 10**15 + 5

    def test_state_root_mismatch_mid_reorg_restores_old_branch(
        self, three_nodes, alice, bob
    ):
        # B's heavier branch ends in a corrupted block: A must re-execute
        # its rolled-back branch and stay on it, store and state agreeing.
        a, b = three_nodes["A"], three_nodes["B"]
        a.submit_transaction(transfer_tx(a, alice, bob.address, 777))
        block_a = mine_one(a)
        b1, b2 = mine_one(b), mine_one(b)
        b2.header.state_root = "0x" + "de" * 32
        b2.header.tx_root = b2.compute_tx_root()
        a.import_block(b1)
        with pytest.raises(InvalidBlockError):
            a.import_block(b2)
        assert a.head.block_hash == block_a.block_hash
        assert a.balance_of(bob.address) == 10**15 + 777
        assert a.receipt_of(a.store.get(block_a.block_hash).transactions[0].tx_hash)


class TestReorgs:
    def test_reorg_replays_state(self, three_nodes, alice, bob):
        a, b = three_nodes["A"], three_nodes["B"]
        # A mines one block with a transfer; B mines two empty heavier blocks.
        a.submit_transaction(transfer_tx(a, alice, bob.address, 777))
        block_a = mine_one(a)

        block_b1 = mine_one(b)
        block_b2 = mine_one(b)

        # A sees B's branch: total difficulty 2 > 1, must reorg.
        a.import_block(block_b1)
        reorg = a.import_block(block_b2)
        assert a.head.block_hash == block_b2.block_hash
        assert a.reorgs_seen == 1
        # The transfer was rolled back with the block; B holds only its
        # two block rewards on the new branch.
        assert a.balance_of(bob.address) == 10**15 + 2 * a.config.block_reward
        del block_a, reorg

    def test_transactions_return_to_mempool_semantics(self, three_nodes, alice, bob):
        # After a reorg drops a tx'd block, stale txs must not break the pool.
        a, b = three_nodes["A"], three_nodes["B"]
        tx = transfer_tx(a, alice, bob.address, 1)
        a.submit_transaction(tx)
        mine_one(a)
        b1, b2 = mine_one(b), mine_one(b)
        a.import_block(b1)
        a.import_block(b2)
        # tx is no longer mined; resubmitting is allowed.
        try:
            a.submit_transaction(tx)
        except MempoolError:
            pytest.fail("valid tx rejected after reorg")


    @pytest.mark.parametrize("state_history", [128, 0], ids=["journal", "replay"])
    def test_rolled_back_transaction_has_no_receipt_until_mined_again(
        self, keypairs, genesis_spec, runtime, state_history
    ):
        """A reorg puts the transfer back in the mempool; its receipt —
        which names a block that is no longer canonical — must go with the
        block, on the journal rollback and on the replay path alike."""
        a = Node(keypairs["A"], genesis_spec, runtime, NodeConfig(state_history=state_history))
        b = Node(keypairs["B"], genesis_spec, runtime, NodeConfig())
        tx = transfer_tx(a, keypairs["A"], keypairs["B"].address, 777)
        a.submit_transaction(tx)
        block_a = mine_one(a)
        assert a.receipt_of(tx.tx_hash).block_hash == block_a.block_hash
        for block in (mine_one(b), mine_one(b)):  # two empty blocks outweigh it
            a.import_block(block)
        assert a.reorgs_seen == 1 and tx.tx_hash in a.mempool
        assert a.receipt_of(tx.tx_hash) is None
        assert block_a.block_hash not in a._receipts_by_block
        assert a.get_logs() == []
        remined = mine_one(a)
        receipt = a.receipt_of(tx.tx_hash)
        assert receipt.success and receipt.block_hash == remined.block_hash != block_a.block_hash
        assert receipt.block_number == 3

    def test_failed_reorg_keeps_old_receipts_and_drops_the_aborted_ones(
        self, three_nodes, alice, bob
    ):
        a, b = three_nodes["A"], three_nodes["B"]
        kept = transfer_tx(a, alice, bob.address, 777)
        a.submit_transaction(kept)
        block_a = mine_one(a)
        aborted = transfer_tx(b, bob, alice.address, 5)
        b.submit_transaction(aborted)
        b1, b2 = mine_one(b), mine_one(b)
        b2.header.state_root = "0x" + "de" * 32
        a.import_block(b1)  # side chain: not executed yet
        with pytest.raises(InvalidBlockError):
            a.import_block(b2)  # applies b1, fails on b2, rolls both out
        assert a.receipt_of(kept.tx_hash).block_hash == block_a.block_hash
        assert a.receipt_of(aborted.tx_hash) is None


class TestGenesisCommitment:
    def test_allocation_is_hashed_once_for_any_number_of_nodes(self, keypairs, runtime):
        from repro.chain.state import STATE_STATS

        spec = GenesisSpec(allocations={kp.address: 10**15 for kp in keypairs.values()})
        STATE_STATS.reset()
        nodes = [Node(kp, spec, runtime, NodeConfig()) for kp in keypairs.values()]
        assert STATE_STATS.accounts_hashed == len(keypairs)
        roots = {node.state.state_root() for node in nodes}
        assert roots == {nodes[0].head.header.state_root}
        assert STATE_STATS.accounts_hashed == len(keypairs)  # seeded, not re-hashed
        assert rebuilt_root(nodes[0].state) in roots
        assert nodes[0].head is not nodes[1].head  # tampering with one leaves the other

    def test_editing_the_allocations_afterwards_is_seen(self, keypairs, runtime):
        allocations = {kp.address: 10**15 for kp in keypairs.values()}
        spec = GenesisSpec(allocations=allocations)
        first = Node(keypairs["A"], spec, runtime, NodeConfig())
        allocations[keypairs["A"].address] += 1  # the dict the spec still holds
        second = Node(keypairs["A"], spec, runtime, NodeConfig())
        assert second.balance_of(keypairs["A"].address) == 10**15 + 1
        assert second.head.header.state_root == rebuilt_root(second.state)
        assert second.head.block_hash != first.head.block_hash
        assert first.head.header.state_root == rebuilt_root(first.state)


class TestStateHistory:
    def test_reorg_without_journal_marks_replays(self, keypairs, genesis_spec, runtime):
        # state_history=0 keeps only the head's mark: reorgs rebuild state
        # by replaying from genesis and must reach the same balances.
        a = Node(keypairs["A"], genesis_spec, runtime, NodeConfig(state_history=0))
        b = Node(keypairs["B"], genesis_spec, runtime, NodeConfig())
        a.submit_transaction(transfer_tx(a, keypairs["A"], keypairs["B"].address, 777))
        mine_one(a)
        b1, b2 = mine_one(b), mine_one(b)
        a.import_block(b1)
        a.import_block(b2)
        assert a.head.block_hash == b2.block_hash
        assert a.balance_of(keypairs["B"].address) == 10**15 + 2 * a.config.block_reward

    def test_pruned_history_falls_back_to_replay(self, keypairs, genesis_spec, runtime):
        # state_history=1 prunes marks quickly; a reorg past the pruned
        # window replays from genesis instead of rolling the journal back.
        a = Node(keypairs["A"], genesis_spec, runtime, NodeConfig(state_history=1))
        b = Node(keypairs["B"], genesis_spec, runtime, NodeConfig())
        for _ in range(4):
            mine_one(a)
        assert len(a._state_marks) <= 3  # pruned to the history window
        fork = [mine_one(b) for _ in range(5)]  # heavier branch from genesis
        for block in fork:
            a.import_block(block)
        assert a.head.block_hash == fork[-1].block_hash
        assert a.balance_of(keypairs["B"].address) == 10**15 + 5 * a.config.block_reward
        assert a.height == 5

    def test_journal_pruned_to_history_window(self, node, alice, bob):
        node.config.state_history = 2
        for _ in range(6):
            node.submit_transaction(transfer_tx(node, alice, bob.address, 1))
            mine_one(node)
        # Marks exist only for the last two blocks (plus nothing older),
        # and the journal holds only their undo records.
        numbers = sorted(node.store.get(bh).number for bh in node._state_marks)
        assert numbers == [4, 5, 6]
        assert node.state.journal_size() < 60

