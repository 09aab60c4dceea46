"""The scale-out subsystem: parallel execution, cold storage, snapshots.

Covers the three pillars of ``repro.chain.scale`` plus the node plumbing
that threads them together:

* deterministic speculate/merge transaction execution — byte-identical
  to serial (deterministic fixtures plus a hypothesis property over
  random transfer blocks);
* the spillable cold store — round-trip, dedup, LRU, and the node-level
  guarantee that receipts and ``get_logs`` survive a spill/reload cycle;
* root-verified snapshots — encode/install round-trip, tamper
  rejection, deep reorgs restarting from the nearest checkpoint, and
  ``sync_from`` fast-forwarding a rejoining peer with replay cost bound
  by the snapshot interval rather than the chain length.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.crypto import KeyPair
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.runtime import ContractRuntime
from repro.chain.scale import (
    ColdStore,
    encode_snapshot,
    install_snapshot,
    snapshot_key,
    SnapshotError,
    execute_block_transactions,
)
from repro.chain.scale.coldstore import ColdStoreError
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.contracts import register_all
from repro.errors import InvalidBlockError
from repro.scenarios.spec import ChainSpec, ConfigError

KEYPAIRS = [KeyPair.from_seed(f"scale-{i}") for i in range(8)]
GENESIS = GenesisSpec(allocations={kp.address: 10**15 for kp in KEYPAIRS})


def fresh_runtime() -> ContractRuntime:
    rt = ContractRuntime()
    register_all(rt)
    return rt


def make_node(owner: KeyPair, **cfg) -> Node:
    return Node(owner, GENESIS, fresh_runtime(), NodeConfig(**cfg))


def transfer(node: Node, sender: KeyPair, to, value, gas_price=1) -> Transaction:
    tx = Transaction(
        sender=sender.address,
        to=to,
        nonce=node.next_nonce_for(sender.address),
        value=value,
        gas_price=gas_price,
    )
    return tx.sign_with(sender)


def mine(node: Node) -> "Block":
    block = node.build_block_candidate(
        node.head.header.timestamp + 13.0, difficulty=1
    )
    node.seal_and_import(block, nonce=0)
    return block


def deploy_registry(node: Node, deployer: KeyPair):
    tx = Transaction(
        sender=deployer.address,
        to=None,
        nonce=node.next_nonce_for(deployer.address),
        args={"contract": "participant_registry"},
    ).sign_with(deployer)
    node.submit_transaction(tx)
    mine(node)
    return node.receipt_of(tx.tx_hash).contract_address


def register_tx(node: Node, kp: KeyPair, registry, name: str) -> Transaction:
    tx = Transaction(
        sender=kp.address,
        to=registry,
        nonce=node.next_nonce_for(kp.address),
        method="register",
        args={"display_name": name},
    ).sign_with(kp)
    return tx


def canonical_blocks(node: Node) -> list:
    """Ancestor-first canonical lineage above genesis (revives cold)."""
    return [
        node.store.get(node.store.canonical_hash(number))
        for number in range(1, node.height + 1)
    ]


# ---------------------------------------------------------------------------
# Cold store
# ---------------------------------------------------------------------------


class TestColdStore:
    def test_round_trip(self):
        store = ColdStore()
        store.put("a", {"x": 1, "y": [1, 2, 3]})
        assert store.get("a") == {"x": 1, "y": [1, 2, 3]}
        assert "a" in store and len(store) == 1 and list(store.keys()) == ["a"]

    def test_dedup_by_key(self):
        store = ColdStore()
        assert store.put("a", {"x": 1}) is True
        before = store.bytes_stored()
        assert store.put("a", {"x": 999}) is False  # content-addressed
        assert store.bytes_stored() == before
        assert store.stats.dedup_hits == 1 and store.stats.puts == 1
        assert store.get("a") == {"x": 1}

    def test_missing_key_raises(self):
        with pytest.raises(ColdStoreError):
            ColdStore().get("nope")

    def test_lru_caches_and_evicts(self):
        store = ColdStore(cache_size=1)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1
        assert store.get("a") == 1  # served from cache
        assert store.stats.cache_hits == 1
        assert store.get("b") == 2  # evicts "a"
        assert store.get("a") == 1  # decoded again, not a cache hit
        assert store.stats.cache_hits == 1

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            ColdStore(cache_size=-1)


# ---------------------------------------------------------------------------
# Parallel execution: byte identity with serial
# ---------------------------------------------------------------------------


def assert_same_outcome(serial: Node, other: Node, txs):
    assert other.head.block_hash == serial.head.block_hash
    assert other.state.state_root() == serial.state.state_root()
    for tx in txs:
        a = serial.receipt_of(tx.tx_hash)
        b = other.receipt_of(tx.tx_hash)
        assert a is not None and b is not None
        assert a.to_dict() == b.to_dict()


class TestParallelExecution:
    def build_workload(self, serial: Node):
        """Two blocks: registry deploy, then a mixed contention block."""
        registry = deploy_registry(serial, KEYPAIRS[0])
        txs = []

        def submit(tx):
            serial.submit_transaction(tx)
            txs.append(tx)

        for kp in KEYPAIRS[1:]:
            submit(register_tx(serial, kp, registry, kp.address[:6]))
        # Second tx from the same sender: speculation against the
        # pre-block state fails the nonce check -> serial re-exec.
        submit(transfer(serial, KEYPAIRS[1], KEYPAIRS[2].address, 777))
        # The miner spends: any miner-balance touch forfeits the fast path.
        submit(transfer(serial, KEYPAIRS[0], KEYPAIRS[3].address, 5))
        mine(serial)
        return registry, txs

    def test_parallel_import_is_byte_identical(self):
        serial = make_node(KEYPAIRS[0])
        _registry, txs = self.build_workload(serial)
        par = make_node(KEYPAIRS[0], execution="parallel", parallel_min_txs=1)
        for block in canonical_blocks(serial):
            par.import_block(block)  # raises on any state-root drift
        assert_same_outcome(serial, par, txs)
        stats = par.execution_stats
        assert stats.parallel_blocks >= 1
        assert stats.clean_txs >= 1  # disjoint registrations merged fast
        assert stats.dirty_txs >= 2  # miner spend + same-sender follow-up
        assert stats.failed_speculations >= 1

    def test_speculation_has_no_worker_count(self):
        # Speculation runs in the calling process; the wire workers are
        # the only way this code uses more than one core.
        assert "workers" not in inspect.signature(execute_block_transactions).parameters

    def test_small_blocks_stay_serial(self):
        par = make_node(
            KEYPAIRS[0], execution="parallel", parallel_min_txs=64
        )
        par.submit_transaction(transfer(par, KEYPAIRS[1], KEYPAIRS[2].address, 1))
        mine(par)
        assert par.execution_stats.parallel_blocks == 0
        assert par.execution_stats.serial_blocks >= 1

    def test_registrations_parallelize_cleanly(self):
        # The registry keeps no shared counter slot, so registrations from
        # distinct senders must all take the fast path.
        serial = make_node(KEYPAIRS[0])
        registry = deploy_registry(serial, KEYPAIRS[0])
        txs = [
            register_tx(serial, kp, registry, kp.address[:6])
            for kp in KEYPAIRS[1:]
        ]
        for tx in txs:
            serial.submit_transaction(tx)
        mine(serial)
        par = make_node(
            KEYPAIRS[0], execution="parallel", parallel_min_txs=1
        )
        for block in canonical_blocks(serial):
            par.import_block(block)
        assert_same_outcome(serial, par, txs)
        # All registrations merge fast; the only dirty tx is the deploy
        # (sent by the miner itself, in the single-tx first block).
        assert par.execution_stats.clean_txs == len(txs)
        assert par.execution_stats.dirty_txs == 1


class TestParallelSerialProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=1000),
            ),
            min_size=2,
            max_size=10,
        ),
    )
    def test_random_transfer_blocks_match(self, moves):
        serial = make_node(KEYPAIRS[0])
        txs = []
        for sender_i, to_i, value in moves:
            tx = transfer(
                serial, KEYPAIRS[sender_i], KEYPAIRS[to_i].address, value
            )
            serial.submit_transaction(tx)
            txs.append(tx)
        mine(serial)
        par = make_node(KEYPAIRS[0], execution="parallel", parallel_min_txs=1)
        for block in canonical_blocks(serial):
            par.import_block(block)
        assert_same_outcome(serial, par, txs)
        total_gas = sum(serial.receipt_of(tx.tx_hash).gas_used for tx in txs)
        assert total_gas == sum(
            par.receipt_of(tx.tx_hash).gas_used for tx in txs
        )


# ---------------------------------------------------------------------------
# Cold spilling: receipts and logs survive the segment file
# ---------------------------------------------------------------------------


class TestSpilledReceiptsAndLogs:
    def build_spilled_node(self):
        node = make_node(
            KEYPAIRS[0], cold_store=ColdStore(), hot_window=3
        )
        registry = deploy_registry(node, KEYPAIRS[0])
        txs = [
            register_tx(node, kp, registry, kp.address[:6])
            for kp in KEYPAIRS[1:3]
        ]
        for tx in txs:
            node.submit_transaction(tx)
        mine(node)
        logs_before = [entry.to_dict() for entry in node.get_logs(address=registry)]
        receipts_before = {tx.tx_hash: node.receipt_of(tx.tx_hash).to_dict() for tx in txs}
        for _ in range(8):
            mine(node)
        return node, registry, txs, logs_before, receipts_before

    def test_spill_happened(self):
        node, *_ = self.build_spilled_node()
        storage = node.scale_stats()["storage"]
        assert storage["spilled_blocks"] > 0
        assert storage["hot_blocks"] <= node.config.hot_window + 1
        assert storage["cold_receipt_txs"] > 0

    def test_get_logs_identical_after_spill(self):
        node, registry, _txs, logs_before, _ = self.build_spilled_node()
        assert logs_before  # the fixture really produced events
        logs_after = [entry.to_dict() for entry in node.get_logs(address=registry)]
        assert logs_after == logs_before

    def test_receipts_identical_after_spill(self):
        node, _registry, txs, _logs, receipts_before = self.build_spilled_node()
        for tx in txs:
            assert node.receipt_of(tx.tx_hash).to_dict() == receipts_before[tx.tx_hash]

    def test_spilled_block_revives_identically(self):
        node, *_ = self.build_spilled_node()
        block_hash = node.store.canonical_hash(2)
        assert node.store.spilled_count() > 0
        revived = node.store.get(block_hash)
        assert revived.block_hash == block_hash
        assert revived.body_matches_header()


class TestRevivedBlocksAreHeldToTheirAddress:
    """A spilled block comes back only if its header hashes to the key it
    was stored under and commits to the transactions that came with it."""

    def spilled_block_with_a_call(self):
        cold = ColdStore(cache_size=0)  # every read is a segment read
        node = make_node(KEYPAIRS[0], cold_store=cold, hot_window=2, state_history=2)
        registry = deploy_registry(node, KEYPAIRS[0])
        node.submit_transaction(register_tx(node, KEYPAIRS[1], registry, "alice-name"))
        mine(node)
        for _ in range(5):
            mine(node)
        block_hash = node.store.canonical_hash(2)
        assert block_hash in node.store._spilled
        return node, cold, block_hash

    @staticmethod
    def flip(cold, key, before: bytes, after: bytes):
        """Overwrite ``before`` with the same-length ``after`` inside the
        segment record stored under ``key``."""
        assert len(before) == len(after) and before != after
        offset, length = cold._index[key]
        cold._segment.seek(offset)
        raw = cold._segment.read(length)
        assert raw.count(before) == 1
        cold._segment.seek(offset + raw.index(before))
        cold._segment.write(after)

    @pytest.mark.parametrize(
        "before, after",
        [
            (b'"display_name":"alice-name"', b'"display_name":"alice-nbme"'),  # a tx arg
            (b'"number":2,', b'"number":3,'),  # the header
            (b'"transactions":[', b'"transbctions":['),  # the record's own shape
        ],
        ids=["tx-arg", "header", "shape"],
    )
    def test_corrupt_record_is_a_typed_error_on_every_reviving_path(self, before, after):
        node, cold, block_hash = self.spilled_block_with_a_call()
        assert node.store.get(block_hash).block_hash == block_hash  # intact: revives
        self.flip(cold, block_hash, before, after)
        with pytest.raises(ColdStoreError):
            node.store.get(block_hash)
        with pytest.raises(ColdStoreError):
            node.store.canonical_chain()
        # Replay past the journal horizon walks through the block ...
        root_before, head_before = node.state.state_root(), node.head_hash
        with pytest.raises(ColdStoreError):
            node._replay_to(node.head_hash)
        # ... and so does a reorg that rolls it back: a typed error, never
        # a block executed from bytes nobody committed to.
        rival = make_node(KEYPAIRS[1])
        fork = [mine(rival) for _ in range(node.height + 1)]
        with pytest.raises(ColdStoreError):
            for block in fork:
                node.import_block(block)
        assert node.state.state_root() == root_before
        rebuilt = WorldState.from_account_dicts(node.state.export_account_dicts())
        assert rebuilt.state_root() == node.store.get(head_before).header.state_root

    def test_checked_block_is_shared_by_later_cache_hits(self):
        cold = ColdStore()
        node = make_node(KEYPAIRS[0], cold_store=cold, hot_window=2)
        for _ in range(6):
            mine(node)
        block_hash = node.store.canonical_hash(1)
        first = node.store.get(block_hash)
        assert node.store.get(block_hash) is first  # verified once, at the segment read
        assert cold.stats.cache_hits >= 1


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class TestSnapshotCodec:
    def test_round_trip(self):
        state = GENESIS.build_state()
        genesis = GENESIS.build_genesis()
        payload = encode_snapshot(state, genesis)
        rebuilt = install_snapshot(
            payload, expected_state_root=genesis.header.state_root
        )
        assert rebuilt.state_root() == state.state_root()
        assert rebuilt.balance_of(KEYPAIRS[0].address) == 10**15

    def test_tampered_account_rejected(self):
        state = GENESIS.build_state()
        genesis = GENESIS.build_genesis()
        payload = copy.deepcopy(encode_snapshot(state, genesis))
        victim = sorted(payload["accounts"])[0]
        payload["accounts"][victim]["balance"] += 1
        with pytest.raises(SnapshotError):
            install_snapshot(payload)

    def test_wrong_expected_root_rejected(self):
        state = GENESIS.build_state()
        payload = encode_snapshot(state, GENESIS.build_genesis())
        with pytest.raises(SnapshotError):
            install_snapshot(payload, expected_state_root="0" * 64)

    def test_unknown_version_rejected(self):
        state = GENESIS.build_state()
        payload = copy.deepcopy(encode_snapshot(state, GENESIS.build_genesis()))
        payload["version"] = 999
        with pytest.raises(SnapshotError):
            install_snapshot(payload)


class TestSnapshotReplay:
    def test_replay_restarts_from_nearest_snapshot(self):
        node = make_node(
            KEYPAIRS[0],
            cold_store=ColdStore(),
            hot_window=4,
            snapshot_interval=5,
        )
        for _ in range(18):
            mine(node)
        assert node.snapshots_taken >= 3
        state = node._replay_to(node.head.block_hash)
        assert state.state_root() == node.head.header.state_root
        assert node.snapshot_replays == 1
        # 18 % 5 -> nearest checkpoint is block 15: replay 3, not 18.
        assert node.last_replay_blocks == 3

    def test_deep_reorg_replays_from_snapshot(self):
        cold = ColdStore()
        cfg = dict(
            cold_store=cold, hot_window=4, snapshot_interval=8, state_history=4
        )
        a = make_node(KEYPAIRS[0], **cfg)
        b = make_node(KEYPAIRS[1], **cfg)
        for _ in range(20):
            mine(a)
        for block in canonical_blocks(a):
            b.import_block(block)
        # The branches diverge at block 20: a extends by 6 (past its own
        # journal horizon), b by 8 (so b's branch wins fork choice).
        for _ in range(6):
            mine(a)
        for _ in range(8):
            mine(b)
        for block in canonical_blocks(b)[20:]:
            a.import_block(block)
        assert a.head.block_hash == b.head.block_hash
        assert a.state.state_root() == b.state.state_root()
        assert a.reorgs_seen >= 1
        # Rolling back 6 blocks overruns state_history=4: the ancestor's
        # journal mark is gone, so the node replays — from the nearest
        # cold checkpoint (block 16), not from genesis.
        assert a.snapshot_replays >= 1
        assert 0 < a.last_replay_blocks <= 8  # bounded by the interval


# ---------------------------------------------------------------------------
# Snapshot fast-sync
# ---------------------------------------------------------------------------


def synced_pair(height=27, interval=8):
    cold = ColdStore()
    provider = make_node(
        KEYPAIRS[0], cold_store=cold, hot_window=4, snapshot_interval=interval
    )
    for _ in range(height):
        mine(provider)
    lineage = canonical_blocks(provider)
    pivot = (height // interval) * interval
    payload = cold.get(snapshot_key(lineage[pivot - 1].block_hash))
    return provider, lineage, pivot, payload


class TestSyncFrom:
    def test_fast_forward_executes_only_the_tail(self):
        provider, lineage, pivot, payload = synced_pair()
        joiner = make_node(KEYPAIRS[1])
        executed = joiner.sync_from(payload, lineage[:pivot], lineage[pivot:])
        assert executed == len(lineage) - pivot
        assert executed < len(lineage) // 3  # replay cost << chain length
        assert joiner.head.block_hash == provider.head.block_hash
        assert joiner.state.state_root() == provider.state.state_root()
        assert joiner.balance_of(KEYPAIRS[0].address) == provider.balance_of(
            KEYPAIRS[0].address
        )
        storage = joiner.scale_stats()["storage"]
        assert storage["snap_syncs"] == 1
        assert storage["snap_skipped_blocks"] == pivot

    def test_synced_node_keeps_mining(self):
        provider, lineage, pivot, payload = synced_pair()
        joiner = make_node(KEYPAIRS[1])
        joiner.sync_from(payload, lineage[:pivot], lineage[pivot:])
        joiner.submit_transaction(
            transfer(joiner, KEYPAIRS[1], KEYPAIRS[2].address, 42)
        )
        mine(joiner)
        assert joiner.height == provider.height + 1
        assert joiner.balance_of(KEYPAIRS[2].address) == 10**15 + 42

    def test_tampered_snapshot_commits_nothing(self):
        _provider, lineage, pivot, payload = synced_pair()
        joiner = make_node(KEYPAIRS[1])
        bad = copy.deepcopy(payload)
        victim = sorted(bad["accounts"])[0]
        bad["accounts"][victim]["balance"] += 1
        with pytest.raises(SnapshotError):
            joiner.sync_from(bad, lineage[:pivot], lineage[pivot:])
        assert joiner.height == 0  # untouched: still at genesis

    def test_non_fast_forward_rejected(self):
        _provider, lineage, pivot, payload = synced_pair()
        joiner = make_node(KEYPAIRS[1])
        with pytest.raises(InvalidBlockError):
            joiner.sync_from(payload, lineage[1:pivot], lineage[pivot:])
        assert joiner.height == 0

    def test_mismatched_snapshot_rejected(self):
        _provider, lineage, pivot, payload = synced_pair()
        joiner = make_node(KEYPAIRS[1])
        with pytest.raises(InvalidBlockError):
            # Payload pinned to the pivot, pre blocks stop one short.
            joiner.sync_from(payload, lineage[: pivot - 1], lineage[pivot - 1 :])
        assert joiner.height == 0


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestScaleConfigValidation:
    def test_unknown_execution_mode(self):
        with pytest.raises(ValueError):
            make_node(KEYPAIRS[0], execution="speculative")

    def test_hot_window_requires_cold_store(self):
        with pytest.raises(ValueError):
            make_node(KEYPAIRS[0], hot_window=8)

    def test_snapshot_interval_requires_cold_store(self):
        with pytest.raises(ValueError):
            make_node(KEYPAIRS[0], snapshot_interval=8)

    def test_parallel_min_txs_floor(self):
        with pytest.raises(ValueError):
            make_node(KEYPAIRS[0], parallel_min_txs=0)

    @pytest.mark.parametrize("config", [NodeConfig, ChainSpec])
    def test_executor_has_two_settings(self, config):
        # Speculation always runs inline: the mode and the block-size
        # threshold are all there is to set, with no process count.
        settings = [
            f.name for f in dataclasses.fields(config) if f.name.startswith(("execution", "parallel"))
        ]
        assert settings == ["execution", "parallel_min_txs"]

    def test_chainspec_mirrors_the_same_rules(self):
        with pytest.raises(ConfigError):
            ChainSpec(execution="speculative")
        with pytest.raises(ConfigError):
            ChainSpec(snapshot_interval=8, cold_storage=False)
        with pytest.raises(ConfigError):
            ChainSpec(hot_window=0)
        spec = ChainSpec(
            execution="parallel", cold_storage=True, snapshot_interval=8
        )
        assert spec.hot_window == 16
