"""One execution per block per cohort: the shared block-execution memo.

Three layers of evidence that sharing executions changes no observable
byte:

* a hypothesis state machine drives a fleet of nodes sharing one
  :class:`BlockExecutionMemo` next to an un-memoised oracle fleet through
  every way a head can move — extension, withheld and late blocks,
  same-height rivals, heavier-branch reorgs, a reorg that fails its
  state-root check, a reorg deeper than ``state_history``, a snapshot
  ``sync_from``, direct state tampering, eviction at capacity — and after
  every step compares the fleets node by node (a candidate whose header
  is edited between build and seal included);
* a deterministic work count on a driver-built cohort: transactions are
  executed once per mined block — by the miner's candidate build, which
  its own import installs like everyone else's — not once per node;
* the full ``chain_stats()`` of a parallel-execution, cold-storage,
  snapshot-syncing run with the memo equals the same run without it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro.core.decentralized as driver_module
from repro.chain.crypto import KeyPair
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.runtime import ContractRuntime
from repro.chain.scale import BlockExecutionMemo, ColdStore, blockmemo, snapshot_key
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.contracts import register_all
from repro.errors import InvalidBlockError, MempoolError
from repro.scenarios import ParticipationSpec, cohort_scenario, run_scenario

KEYPAIRS = [KeyPair.from_seed(f"blockmemo-{i}") for i in range(6)]
ADDRESSES = [kp.address for kp in KEYPAIRS]
GENESIS = GenesisSpec(allocations={address: 10**15 for address in ADDRESSES})
FLEET_SIZE = 4
STATE_HISTORY = 2
SNAPSHOT_INTERVAL = 2
TX_KINDS = ("transfer", "register", "ban", "not_admin", "out_of_gas")

#: Edits of a built candidate's header other than its nonce.  Every one
#: changes what the sealed block commits to, so its miner must execute it
#: on import rather than install what the build executed.
HEADER_EDITS = {
    "state_root": lambda header: setattr(header, "state_root", "0x" + "de" * 32),
    "timestamp": lambda header: setattr(header, "timestamp", header.timestamp + 1.0),
    "gas_used": lambda header: setattr(header, "gas_used", header.gas_used + 1),
}


def fresh_runtime() -> ContractRuntime:
    runtime = ContractRuntime()
    register_all(runtime)
    return runtime


def rebuilt_root(state: WorldState) -> str:
    """Root of a detached replica rebuilt from ``state``'s accounts: no
    cached hash, no cached root."""
    return WorldState.from_account_dicts(state.export_account_dicts()).state_root()


def canonical_blocks(node: Node) -> list:
    return [
        node.store.get(node.store.canonical_hash(number))
        for number in range(1, node.height + 1)
    ]


class Fleet:
    """``FLEET_SIZE`` nodes on one runtime and one cold store, sharing a
    block-execution memo or (the oracle) executing everything locally.

    Journal history, the hot window and the snapshot grid are all a few
    blocks, so short random walks reach the deep-reorg replay, cold
    revival and snapshot paths.
    """

    def __init__(self, shared: bool, parallel: bool) -> None:
        self.cold = ColdStore()
        self.memo = BlockExecutionMemo() if shared else None
        config = NodeConfig(
            state_history=STATE_HISTORY,
            cold_store=self.cold,
            hot_window=3,
            snapshot_interval=SNAPSHOT_INTERVAL,
        )
        if parallel:
            config = replace(config, execution="parallel", parallel_min_txs=1)
        runtime = fresh_runtime()
        self.nodes = [
            Node(KEYPAIRS[i], GENESIS, runtime, replace(config), block_memo=self.memo)
            for i in range(FLEET_SIZE)
        ]

    # -- steps; each returns something the two fleets must agree on --------

    def submit(self, tx: Transaction) -> list:
        outcomes = []
        for node in self.nodes:
            try:
                outcomes.append(node.submit_transaction(tx))
            except MempoolError:
                outcomes.append("rejected")
        return outcomes

    def mine(self, miner: int, clock: float, difficulty: int = 1) -> str:
        node = self.nodes[miner]
        block = node.build_block_candidate(clock, difficulty=difficulty)
        node.seal_and_import(block, nonce=0)
        return block.block_hash

    def edited_build(self, miner: int, edit: str, clock: float) -> object:
        """A candidate whose header is edited between build and seal."""
        node = self.nodes[miner]
        block = node.build_block_candidate(clock, difficulty=1)
        HEADER_EDITS[edit](block.header)
        try:
            node.seal_and_import(block, nonce=0)
        except InvalidBlockError:
            return "invalid"
        return block.block_hash

    def deliver(self, to: int, block) -> object:
        try:
            reorg = self.nodes[to].import_block(block)
        except InvalidBlockError:
            return "invalid"
        return None if reorg is None else (reorg.rolled_back, reorg.applied)

    def follow(self, follower: int, leader: int) -> list:
        """``follower`` imports ``leader``'s canonical chain, oldest first:
        an extension, a side chain or a reorg, whichever the weights say."""
        return [self.deliver(follower, block) for block in canonical_blocks(self.nodes[leader])]

    def align(self, a: int, b: int, clock: float) -> bool:
        """Bring two nodes to one head (``b`` mines to break ties)."""
        for attempt in range(3):
            self.follow(a, b)
            self.follow(b, a)
            if self.nodes[a].head_hash == self.nodes[b].head_hash:
                return True
            self.mine(b, clock + attempt / 4)
        return False

    def failed_reorg(self, victim: int, rival: int, clock: float) -> object:
        """A block heavy enough to take ``victim``'s head whose state root
        is wrong: fork choice switches, execution fails, the switch is
        rolled back (re-executing whatever it had rolled back)."""
        self.follow(victim, rival)
        node, other = self.nodes[victim], self.nodes[rival]
        lead = node.store.total_difficulty(node.head_hash) - other.store.total_difficulty(
            other.head_hash
        )
        bad = other.build_block_candidate(clock, difficulty=max(lead, 0) + 1)
        bad.header.state_root = "0x" + "de" * 32
        before = node.head_hash
        outcome = self.deliver(victim, bad)
        assert outcome == "invalid" and node.head_hash == before
        return bad.block_hash

    def deep_reorg(self, loser: int, winner: int, clock: float) -> list:
        """``loser`` builds more private blocks than the journal keeps,
        ``winner`` a heavier private branch; importing it sends ``loser``
        through ``_replay_to``."""
        self.align(loser, winner, clock)
        for step in range(STATE_HISTORY + 1):
            self.mine(loser, clock + 1 + step / 8)
        for step in range(STATE_HISTORY + 2):
            self.mine(winner, clock + 2 + step / 8, difficulty=2)
        replays = self.nodes[loser].last_replay_blocks, self.nodes[loser].snapshot_replays
        outcomes = self.follow(loser, winner)
        assert self.nodes[loser].head_hash == self.nodes[winner].head_hash
        return [outcomes, replays]

    def snapshot_sync(self, behind: int, ahead: int, lead: int, clock: float) -> object:
        """``ahead`` gets ``lead`` blocks in front; ``behind`` adopts the
        newest snapshot below its head and executes only the tail."""
        if not self.align(behind, ahead, clock):
            return "unaligned"
        base = self.nodes[behind].height
        for step in range(lead):
            self.mine(ahead, clock + 1 + step / 8)
        lineage = canonical_blocks(self.nodes[ahead])[base:]
        pivots = [
            index
            for index, block in enumerate(lineage[:-1])
            if snapshot_key(block.block_hash) in self.cold
        ]
        if not pivots:
            return "no snapshot"
        pivot = pivots[-1]
        payload = self.cold.get(snapshot_key(lineage[pivot].block_hash))
        executed = self.nodes[behind].sync_from(payload, lineage[: pivot + 1], lineage[pivot + 1 :])
        assert self.nodes[behind].head_hash == self.nodes[ahead].head_hash
        return executed

    def tampered_import(self, victim: int, miner: int, clock: float) -> object:
        """Edit ``victim``'s state behind the journal's back, then hand it
        a valid block: the import must fail its root check (with a memo:
        the node's own root no longer matches any key, so it executes for
        real).  The edit is undone afterwards."""
        if not self.align(victim, miner, clock):
            return "unaligned"
        block_hash = self.mine(miner, clock + 1)
        node = self.nodes[victim]
        misses = self.memo.misses if self.memo is not None else 0
        node.state.account(ADDRESSES[5]).balance += 1
        outcome = self.deliver(victim, self.nodes[miner].store.get(block_hash))
        node.state.account(ADDRESSES[5]).balance -= 1
        assert outcome == "invalid"
        if self.memo is not None:
            assert self.memo.misses == misses + 1
        return block_hash

    # -- observation ----------------------------------------------------------

    def view(self, index: int, tx_hashes: list) -> dict:
        node = self.nodes[index]
        receipts = {}
        for tx_hash in tx_hashes:
            receipt = node.receipt_of(tx_hash)
            receipts[tx_hash] = None if receipt is None else receipt.to_dict()
        return {
            "head": node.head_hash,
            "height": node.height,
            "root": node.state.state_root(),
            "receipts": receipts,
            "logs": [entry.to_dict() for entry in node.get_logs()],
            "accounts": {a: (node.balance_of(a), node.nonce_of(a)) for a in ADDRESSES},
            "mempool": sorted(tx.tx_hash for tx in node.mempool.pending()),
            "scale": node.scale_stats(),
            "marked": sorted(node._state_marks),
            "counters": (node.blocks_mined, node.reorgs_seen),
        }

    def close(self) -> None:
        self.cold.close()


class MemoVsOracleMachine(RuleBasedStateMachine):
    """Every step runs on both fleets; every node must equal its twin."""

    nodes = st.integers(min_value=0, max_value=FLEET_SIZE - 1)

    @initialize(parallel=st.booleans(), capacity=st.sampled_from([3, blockmemo.CAPACITY]))
    def build(self, parallel, capacity):
        self._capacity = blockmemo.CAPACITY
        blockmemo.CAPACITY = capacity
        self.shared = Fleet(shared=True, parallel=parallel)
        self.oracle = Fleet(shared=False, parallel=parallel)
        self.clock = 0.0
        self.tx_hashes: list[str] = []
        deploy = Transaction(
            sender=ADDRESSES[0],
            to=None,
            nonce=0,
            args={"contract": "participant_registry"},
        ).sign_with(KEYPAIRS[0])
        self.both("submit", deploy)
        self.tx_hashes.append(deploy.tx_hash)
        self.both("mine", 0, self.tick())
        self.registry = self.shared.nodes[0].receipt_of(deploy.tx_hash).contract_address
        for who in (1, 2, 3):  # members, so that a ban has a slot to delete
            self.submit("register", who, 0)
        self.both("mine", 0, self.tick())
        for follower in range(1, FLEET_SIZE):
            self.both("follow", follower, 0)

    def tick(self, by: float = 4.0) -> float:
        self.clock += by
        return self.clock

    def both(self, step: str, *args):
        got = getattr(self.shared, step)(*args)
        want = getattr(self.oracle, step)(*args)
        assert got == want, f"{step}{args}: {got!r} != {want!r}"
        return got

    @rule(kind=st.sampled_from(TX_KINDS), who=st.integers(0, 5), via=nodes)
    def submit(self, kind, who, via):
        sender = KEYPAIRS[0] if kind == "ban" else KEYPAIRS[who]
        nonce = self.shared.nodes[via].next_nonce_for(sender.address)
        assert nonce == self.oracle.nodes[via].next_nonce_for(sender.address)
        fields = {"sender": sender.address, "nonce": nonce}
        if kind == "transfer":
            fields.update(to=ADDRESSES[(who + 1) % 6], value=1000 + who)
        elif kind == "register":  # a second registration reverts
            fields.update(to=self.registry, method="register", args={"display_name": f"p{who}"})
        elif kind == "ban":  # deletes the member's storage slot
            fields.update(to=self.registry, method="ban", args={"address": ADDRESSES[who]})
        elif kind == "not_admin":
            fields.update(to=self.registry, method="close_enrollment")
        else:  # enough for the intrinsic charge, not for the first sstore
            fields.update(
                to=self.registry, method="register", args={"display_name": "x"}, gas_limit=30_000
            )
        tx = Transaction(**fields).sign_with(sender)
        self.both("submit", tx)
        self.tx_hashes.append(tx.tx_hash)

    @rule(miner=nodes, difficulty=st.integers(1, 3))
    def mine(self, miner, difficulty):
        """A private block: a same-height rival to anything the others
        mine before they hear of it."""
        self.both("mine", miner, self.tick(), difficulty)

    @rule(miner=nodes, edit=st.sampled_from(sorted(HEADER_EDITS)))
    def edited_build(self, miner, edit):
        self.both("edited_build", miner, edit, self.tick())

    @rule(follower=nodes, leader=nodes)
    def follow(self, follower, leader):
        self.both("follow", follower, leader)

    @rule(victim=nodes, rival=nodes)
    def failed_reorg(self, victim, rival):
        if victim != rival:
            self.both("failed_reorg", victim, rival, self.tick())

    @rule(loser=nodes, winner=nodes)
    def deep_reorg(self, loser, winner):
        if loser != winner:
            self.both("deep_reorg", loser, winner, self.tick())

    @rule(behind=nodes, ahead=nodes, lead=st.integers(2, 4))
    def snapshot_sync(self, behind, ahead, lead):
        if behind != ahead:
            self.both("snapshot_sync", behind, ahead, lead, self.tick())

    @rule(victim=nodes, miner=nodes)
    def tampered_import(self, victim, miner):
        if victim != miner:
            self.both("tampered_import", victim, miner, self.tick())

    @invariant()
    def every_node_equals_its_oracle(self):
        for index in range(FLEET_SIZE):
            got = self.shared.view(index, self.tx_hashes)
            want = self.oracle.view(index, self.tx_hashes)
            assert got == want, f"node {index} diverged from its oracle"
        assert self.shared.cold.stats.as_dict() == self.oracle.cold.stats.as_dict()

    @invariant()
    def adopted_hashes_are_the_real_ones(self):
        for node in self.shared.nodes:
            assert node.state.state_root() == rebuilt_root(node.state)
            assert node.head.header.state_root == node.state.state_root()
            assert all(node.state.can_rollback_to(mark) for mark in node._state_marks.values())

    def teardown(self):
        if not hasattr(self, "shared"):
            return
        try:
            # Every live per-block mark still rolls back to that block's
            # committed root (newest first; destructive, so last).
            for node, twin in zip(self.shared.nodes, self.oracle.nodes):
                assert set(node._state_marks) == set(twin._state_marks)
                marks = sorted(node._state_marks.items(), key=lambda item: -item[1])
                for block_hash, mark in marks:
                    node.state.rollback(mark)
                    twin.state.rollback(twin._state_marks[block_hash])
                    committed = node.store.get(block_hash).header.state_root
                    assert node.state.state_root() == twin.state.state_root() == committed
                    assert rebuilt_root(node.state) == committed
        finally:
            blockmemo.CAPACITY = self._capacity
            self.shared.close()
            self.oracle.close()


TestMemoVsOracleMachine = MemoVsOracleMachine.TestCase
TestMemoVsOracleMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)


class TestSharedExecution:
    def make_fleet(self, size=3, **config):
        runtime = fresh_runtime()
        memo = BlockExecutionMemo()
        nodes = [
            Node(KEYPAIRS[i], GENESIS, runtime, NodeConfig(**config), block_memo=memo)
            for i in range(size)
        ]
        return memo, nodes

    def mine_transfers(self, node, clock, count=3):
        for index in range(count):
            sender = KEYPAIRS[index + 1]
            node.submit_transaction(
                Transaction(
                    sender=sender.address,
                    to=ADDRESSES[0],
                    nonce=node.next_nonce_for(sender.address),
                    value=7,
                ).sign_with(sender)
            )
        block = node.build_block_candidate(clock, difficulty=1)
        node.seal_and_import(block, nonce=0)
        return block

    def test_the_build_executes_and_every_import_installs(self):
        memo, (miner, second, third) = self.make_fleet()
        block = self.mine_transfers(miner, 1.0)
        # The build recorded its execution; the miner's import installed it.
        assert (memo.hits, memo.misses, len(memo)) == (1, 0, 1)
        second.import_block(block)
        third.import_block(block)
        assert (memo.hits, memo.misses) == (3, 0)
        oracle = Node(KEYPAIRS[3], GENESIS, miner.runtime, NodeConfig())
        oracle.import_block(block)
        for node in (miner, second, third):
            assert node.head_hash == oracle.head_hash
            assert node.state.state_root() == oracle.state.state_root()
            assert rebuilt_root(node.state) == block.header.state_root
            for tx in block.transactions:
                receipt = node.receipt_of(tx.tx_hash)
                assert receipt.block_hash == block.block_hash  # the sealed hash
                assert receipt.to_dict() == oracle.receipt_of(tx.tx_hash).to_dict()

    @pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
    def test_a_header_edited_between_build_and_seal_executes_on_import(self, edit):
        """Only the nonce may change between build and seal; any other
        edit means the sealed block is not what the build executed, so
        the miner executes it on import and reaches the verdict a node
        without the memo reaches."""
        memo = BlockExecutionMemo()
        runtime = fresh_runtime()
        miner = Node(KEYPAIRS[0], GENESIS, runtime, NodeConfig(), block_memo=memo)
        plain = Node(KEYPAIRS[0], GENESIS, runtime, NodeConfig())  # no memo: one more miner
        verdicts = []
        for node in (miner, plain):
            deploy = Transaction(
                sender=ADDRESSES[1],
                to=None,
                nonce=0,
                args={"contract": "aggregation_coordinator", "model_store_address": ADDRESSES[5]},
            ).sign_with(KEYPAIRS[1])
            node.submit_transaction(deploy)
            node.seal_and_import(node.build_block_candidate(1.0, difficulty=1), nonce=0)
            coordinator = node.receipt_of(deploy.tx_hash).contract_address
            # Opening a round stores the block timestamp in contract state.
            node.submit_transaction(
                Transaction(
                    sender=ADDRESSES[1],
                    to=coordinator,
                    nonce=1,
                    method="open_round",
                    args={"round_id": 1},
                ).sign_with(KEYPAIRS[1])
            )
            block = node.build_block_candidate(2.0, difficulty=1)
            HEADER_EDITS[edit](block.header)
            misses = memo.misses
            try:
                node.seal_and_import(block, nonce=7)
            except InvalidBlockError:
                verdicts.append(("invalid", node.height, node.state.state_root()))
            else:
                verdicts.append(("imported", node.height, node.state.state_root()))
            if node is miner:
                assert memo.misses == misses + 1  # executed, not installed
        assert verdicts[0] == verdicts[1]
        # A node checks the root it executes to, not the gas the header
        # claims, so only that edit imports.
        assert verdicts[0][0] == ("imported" if edit == "gas_used" else "invalid")

    def test_a_hit_installs_deployments_and_deleted_slots(self):
        memo, (miner, second, _) = self.make_fleet()

        def mine_call(clock, sender, **fields):
            tx = Transaction(
                sender=sender.address, nonce=miner.next_nonce_for(sender.address), **fields
            ).sign_with(sender)
            miner.submit_transaction(tx)
            block = miner.build_block_candidate(clock, difficulty=1)
            miner.seal_and_import(block, nonce=0)
            receipt = miner.receipt_of(tx.tx_hash)
            assert receipt.success
            return block, receipt

        deployed, receipt = mine_call(1.0, KEYPAIRS[0], to=None, args={"contract": "participant_registry"})
        registry = receipt.contract_address
        joined, _ = mine_call(2.0, KEYPAIRS[1], to=registry, method="register")
        banned, _ = mine_call(
            3.0, KEYPAIRS[0], to=registry, method="ban", args={"address": ADDRESSES[1]}
        )
        for block in (deployed, joined, banned):
            second.import_block(block)
            assert rebuilt_root(second.state) == block.header.state_root
        assert (memo.hits, memo.misses) == (6, 0)  # the miner's imports and the second node's
        assert second.has_contract(registry)
        assert second.call_contract(registry, "members") == []
        assert second.call_contract(registry, "is_banned", address=ADDRESSES[1])

    def test_a_block_that_fails_its_root_is_never_recorded(self):
        memo, (miner, second, third) = self.make_fleet()
        bad = miner.build_block_candidate(1.0, difficulty=1)
        bad.header.state_root = "0x" + "ab" * 32
        for node in (second, third):
            with pytest.raises(InvalidBlockError):
                node.import_block(bad)
            assert node.height == 0
        assert (memo.hits, len(memo)) == (0, 0)

    def test_nodes_with_different_execution_parameters_do_not_share(self):
        runtime = fresh_runtime()
        memo = BlockExecutionMemo()
        miner = Node(KEYPAIRS[0], GENESIS, runtime, NodeConfig(), block_memo=memo)
        richer = Node(
            KEYPAIRS[1], GENESIS, runtime, NodeConfig(block_reward=1), block_memo=memo
        )
        block = self.mine_transfers(miner, 1.0)
        with pytest.raises(InvalidBlockError):
            richer.import_block(block)  # its own reward gives another root
        assert (memo.hits, memo.misses) == (1, 1)  # only the miner's own import hit

    def test_scheduler_counts_are_replayed_on_a_hit(self):
        memo, (miner, second, _) = self.make_fleet(execution="parallel", parallel_min_txs=1)
        block = self.mine_transfers(miner, 1.0)
        oracle = Node(
            KEYPAIRS[1], GENESIS, miner.runtime, NodeConfig(execution="parallel", parallel_min_txs=1)
        )
        second.import_block(block)
        oracle.import_block(block)
        assert (memo.hits, memo.misses) == (2, 0)  # the miner's import and the second node's
        assert miner.execution_stats.parallel_blocks == 2  # built, then installed
        assert second.execution_stats.speculated_txs == len(block.transactions)
        assert second.scale_stats() == oracle.scale_stats()

    def test_eviction_at_capacity_only_costs_a_re_execution(self, monkeypatch):
        monkeypatch.setattr(blockmemo, "CAPACITY", 2)
        memo, (miner, second, _) = self.make_fleet()
        blocks = [self.mine_transfers(miner, float(clock)) for clock in range(1, 5)]
        assert (len(memo), memo.evictions) == (2, 2)
        for block in blocks:
            second.import_block(block)
        # The miner's builds were its executions.  The two evicted blocks
        # ran again on the second node, and recording them again evicted
        # the two that were still there, which then ran again too.
        assert memo.misses == 2 + 2
        assert second.state.state_root() == miner.state.state_root()
        assert rebuilt_root(second.state) == miner.head.header.state_root

    def test_bare_node_takes_no_memo(self):
        node = Node(KEYPAIRS[0], GENESIS, fresh_runtime())
        assert node.block_memo is None
        self.mine_transfers(node, 1.0)
        assert node.height == 1


def quick_cohort(size, **chain):
    spec = replace(cohort_scenario(size).quick(), rounds=1)
    return replace(spec, chain=replace(spec.chain, **chain)) if chain else spec


@pytest.fixture
def driver_memos(monkeypatch):
    """Every memo a driver builds while the test runs, in order."""
    memos = []

    def recording_memo():
        memos.append(BlockExecutionMemo())
        return memos[-1]

    monkeypatch.setattr(driver_module, "BlockExecutionMemo", recording_memo)
    return memos


class TestDriverCohort:
    def test_transactions_execute_once_per_block_not_once_per_node(self, monkeypatch, driver_memos):
        """The CI proxy for the benchmark gain: work counts, not seconds."""
        executed, blocks, mined, imports = [], [], [], []
        execute, seal, advance = Node._execute_transaction, Node.seal_and_import, Node._advance
        execute_block = Node._execute_block

        def counting_execute(self, state, tx, *args, **kwargs):
            executed.append(tx.tx_hash)
            return execute(self, state, tx, *args, **kwargs)

        def counting_execute_block(self, state, block):
            blocks.append(block.number)
            return execute_block(self, state, block)

        def counting_seal(self, block, nonce):
            mined.append(len(block.transactions))
            return seal(self, block, nonce)

        def counting_advance(self, state, block):
            imports.append(block.block_hash)
            return advance(self, state, block)

        monkeypatch.setattr(Node, "_execute_transaction", counting_execute)
        monkeypatch.setattr(Node, "_execute_block", counting_execute_block)
        monkeypatch.setattr(Node, "seal_and_import", counting_seal)
        monkeypatch.setattr(Node, "_advance", counting_advance)
        run_scenario(quick_cohort(6))
        (memo,) = driver_memos
        assert sum(mined) > 6 and len(imports) > 3 * len(mined)
        # One execution per mined block, its candidate build; every import
        # of it, the miner's own included, installs the recorded result.
        assert len(executed) == sum(mined) and len(blocks) == len(mined)
        assert memo.misses == 0 and memo.evictions == 0
        assert memo.hits == len(imports)

    def test_every_run_gets_its_own_memo(self, driver_memos):
        """A process-wide memo would make a second identical run all hits
        (and falsify any benchmark that runs passes back to back)."""
        spec = quick_cohort(4)
        run_scenario(spec)
        run_scenario(spec)
        first, second = driver_memos
        assert first is not second
        assert (first.hits, first.misses, len(first)) == (second.hits, second.misses, len(second))
        assert len(second) > 0 and second.hits > 0

    def test_parallel_cold_snapshot_run_is_the_same_with_and_without_the_memo(self, monkeypatch):
        sampled = replace(cohort_scenario(8, sampled_k=3).quick(), rounds=3)
        spec = replace(
            sampled,
            participation=ParticipationSpec(sampled_k=3, churn_rate=0.3),
            chain=replace(
                sampled.chain,
                cold_storage=True,
                hot_window=4,
                snapshot_interval=2,
                execution="parallel",
                parallel_min_txs=2,
            ),
        )
        with_memo = run_scenario(spec).chain_stats
        assert with_memo["snap_syncs"] > 0 and with_memo["reorgs"] > 0  # the axes are exercised
        assert with_memo["execution"]["parallel_blocks"] > 0
        monkeypatch.setattr(driver_module, "BlockExecutionMemo", lambda: None)
        assert run_scenario(spec).chain_stats == with_memo
        serial = replace(spec, chain=replace(spec.chain, execution="serial"))
        without = run_scenario(serial).chain_stats
        # Serial execution keeps no scheduler counts; everything else —
        # heights, gateway bytes, storage, cold store — is the same run.
        assert set(without["execution"].values()) == {0}
        assert {k: v for k, v in without.items() if k != "execution"} == {
            k: v for k, v in with_memo.items() if k != "execution"
        }
