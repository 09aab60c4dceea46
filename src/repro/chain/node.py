"""A full blockchain node: validate, execute, mine, and serve reads.

Equivalent of one Geth process in the paper's deployment.  Each node keeps:

* a :class:`ChainStore` of all known blocks,
* the executed :class:`WorldState` at the canonical head (plus per-block
  journal marks so reorgs roll back in O(touched entries), Geth-journal
  style, instead of copying the whole state),
* a :class:`Mempool`, and
* the shared :class:`ContractRuntime` class registry.

Transaction execution follows Ethereum's recipe: charge intrinsic gas,
buy gas up front, run the transfer/deployment/call, refund unused gas, pay
the miner fee.  Failed executions (revert / out-of-gas) still consume gas
and bump the nonce but roll back their state effects — via a journal
checkpoint, so the rollback cost is proportional to what the transaction
touched.  Block candidates execute on a copy-on-write overlay of the head
state, and state roots are incremental (only accounts a block touched are
re-hashed when its root is computed or verified).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.chain.block import Block, BlockHeader, make_genesis
from repro.chain.chainstore import ChainStore, HeadMoves, ReorgInfo
from repro.chain.crypto import Address, KeyPair
from repro.chain.gas import GasMeter, GasSchedule, DEFAULT_SCHEDULE, UNBOUNDED_BLOCK_GAS, intrinsic_gas
from repro.chain.mempool import Mempool
from repro.chain.runtime import ContractRuntime
from repro.chain.scale import (
    BlockExecution,
    BlockExecutionMemo,
    ColdStore,
    ExecutionStats,
    SnapshotError,
    encode_snapshot,
    execute_block_transactions,
    install_snapshot,
    snapshot_key,
)
from repro.chain.state import WorldState
from repro.chain.transaction import Receipt, Transaction
from repro.errors import (
    ChainError,
    ContractRevertError,
    InsufficientFundsError,
    InvalidBlockError,
    InvalidTransactionError,
    MempoolError,
    NonceError,
    OutOfGasError,
)
from repro.utils.serialization import SerializationError

#: Valid values for :attr:`NodeConfig.execution`.
EXECUTION_MODES = ("serial", "parallel")


@dataclass
class NodeConfig:
    """Node parameters.

    Per-block journal marks let reorgs roll back cheaply;
    ``state_history`` bounds how many blocks of undo history the journal
    retains (deeper reorgs fall back to replay — from the
    nearest cold snapshot when one exists, else from genesis, like a Geth
    node asked to reorg past its snapshot window).

    The scale-out knobs (all off by default, byte-neutral when on):

    ``execution``
        ``"serial"`` runs block transactions in order; ``"parallel"``
        routes blocks with at least ``parallel_min_txs`` transactions
        through the speculate/merge scheduler
        (:mod:`repro.chain.scale.executor`), same byte path.
    ``cold_store`` / ``hot_window``
        A shared :class:`~repro.chain.scale.ColdStore` plus a bound on
        resident canonical blocks: older blocks and their receipts spill
        to the segment file and are revived on demand.
    ``snapshot_interval``
        Every N canonical blocks, persist a root-verified world-state
        checkpoint to the cold store (requires ``cold_store``); deep
        reorgs and rejoining peers replay from a checkpoint instead of
        genesis.
    """

    block_reward: int = 2_000_000_000
    max_txs_per_block: Optional[int] = None
    state_history: int = 128
    schedule: GasSchedule = DEFAULT_SCHEDULE
    execution: str = "serial"
    parallel_min_txs: int = 64
    cold_store: Optional[ColdStore] = None
    hot_window: Optional[int] = None
    snapshot_interval: int = 0


@dataclass
class GenesisSpec:
    """Initial allocation shared by every node of a network."""

    allocations: dict[Address, int] = field(default_factory=dict)
    timestamp: float = 0.0
    difficulty: int = 1

    def _allocate(self) -> WorldState:
        state = WorldState()
        for address, balance in sorted(self.allocations.items()):
            state.credit(address, balance)
        return state

    def _commitment(self) -> tuple[dict[Address, str], str]:
        """Account hashes and root of the allocation state.

        Hashed once per allocation, not once per node: the result is kept
        beside a copy of the allocations it was computed from and reused
        while they still compare equal, so editing the dict afterwards
        recomputes rather than serving the old root.
        """
        memo = getattr(self, "_commitment_memo", None)
        if memo is None or memo[0] != self.allocations:
            state = self._allocate()
            root = state.state_root()
            hashes = {address: state.account_hash(address) for address in self.allocations}
            memo = self._commitment_memo = (dict(self.allocations), hashes, root)
        return memo[1], memo[2]

    def build_state(self) -> WorldState:
        """World state implied by the allocation (hashes already known)."""
        state = self._allocate()
        state.adopt_hashes(*self._commitment())
        return state

    def build_genesis(self) -> Block:
        """Genesis block committing to the allocation state."""
        return make_genesis(
            self._commitment()[1],
            timestamp=self.timestamp,
            difficulty=self.difficulty,
        )


@dataclass(frozen=True)
class _BuiltCandidate:
    """A block candidate as built, and what building it executed."""

    block: Block
    payload: bytes          # the header's sealing payload at build time
    parent_root: str        # root of the state the build executed on
    execution: BlockExecution


class Node:
    """One blockchain participant (validator + miner + RPC surface)."""

    def __init__(
        self,
        keypair: KeyPair,
        genesis_spec: GenesisSpec,
        runtime: ContractRuntime,
        config: Optional[NodeConfig] = None,
        block_memo: Optional[BlockExecutionMemo] = None,
        head_moves: Optional[HeadMoves] = None,
    ) -> None:
        self.keypair = keypair
        self.address: Address = keypair.address
        self.config = config if config is not None else NodeConfig()
        self.runtime = runtime
        # Cohort-shared record of block executions (None: execute every
        # block locally).  Nodes sharing one must run the same contracts.
        self.block_memo = block_memo
        self.genesis_spec = genesis_spec
        if self.config.execution not in EXECUTION_MODES:
            raise ValueError(f"execution must be one of {EXECUTION_MODES}")
        if self.config.parallel_min_txs < 1:
            raise ValueError("parallel_min_txs must be >= 1")
        if self.config.snapshot_interval < 0:
            raise ValueError("snapshot_interval must be >= 0")
        if self.config.hot_window is not None and self.config.cold_store is None:
            raise ValueError("hot_window requires a cold_store")
        if self.config.snapshot_interval > 0 and self.config.cold_store is None:
            raise ValueError("snapshot_interval requires a cold_store")

        genesis = genesis_spec.build_genesis()
        self.store = ChainStore(
            genesis,
            cold=self.config.cold_store,
            hot_window=self.config.hot_window,
            head_moves=head_moves,  # cohort-shared; None counts nothing
            owner=self.address,
        )
        self.state = genesis_spec.build_state()
        self.state.flatten_journal()  # allocation credits never roll back
        self.mempool = Mempool()
        self.receipts: dict[str, Receipt] = {}
        # block hash -> journal mark of self.state right after that block
        # executed; reorgs roll the journal back to the common ancestor's
        # mark instead of rebuilding the state.
        self._state_marks: dict[str, int] = {}
        self._state_marks[genesis.block_hash] = self.state.checkpoint()
        # block hash -> receipts in transaction order, for executed
        # canonical blocks (the eth_getLogs range index).
        self._receipts_by_block: dict[str, Sequence[Receipt]] = {}
        self._orphans: dict[str, list[Block]] = {}
        # tx hash -> block hash, for receipts spilled to cold storage.
        self._receipt_location: dict[str, str] = {}
        # Next canonical height _spill_cold() will consider demoting.
        self._spill_floor = 1
        self.execution_stats = ExecutionStats()
        self.snapshots_taken = 0
        self.snapshots_skipped = 0
        self.snapshot_replays = 0
        self.last_replay_blocks = 0
        self.snap_syncs = 0
        self.snap_skipped_blocks = 0
        self.blocks_mined = 0
        self.reorgs_seen = 0
        # The last candidate built with a shared memo, and what building it
        # executed, until seal_and_import records it (or a newer build).
        self._built: Optional[_BuiltCandidate] = None

    # ------------------------------------------------------------------
    # RPC-style reads
    # ------------------------------------------------------------------

    @property
    def head(self) -> Block:
        """Canonical head block."""
        return self.store.head

    @property
    def head_hash(self) -> str:
        """Canonical head block hash, as stored — nothing is re-hashed."""
        return self.store.head_hash

    @property
    def height(self) -> int:
        """Canonical chain height."""
        return self.store.height

    def balance_of(self, address: Address) -> int:
        """Balance at the canonical head."""
        return self.state.balance_of(address)

    def nonce_of(self, address: Address) -> int:
        """Account nonce at the canonical head."""
        return self.state.nonce_of(address)

    def receipt_of(self, tx_hash: str) -> Optional[Receipt]:
        """Receipt for a mined transaction, if this node executed it.

        Reads through to cold storage for receipts whose block has been
        spilled out of the hot window.
        """
        receipt = self.receipts.get(tx_hash)
        if receipt is not None:
            return receipt
        block_hash = self._receipt_location.get(tx_hash)
        if block_hash is None:
            return None
        for payload in self.config.cold_store.get(f"receipts:{block_hash}"):
            if payload["tx_hash"] == tx_hash:
                return Receipt.from_dict(payload)
        return None

    def has_contract(self, address: Address) -> bool:
        """True iff a contract is deployed at ``address`` in head state."""
        return self.state.is_contract(address)

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        """Query contract events from canonical receipts (``eth_getLogs``).

        Filters by emitting contract ``address`` and/or event ``topic`` over
        the canonical block range.  The walk covers only the requested
        range: canonical blocks resolve by height in O(1) and each block's
        receipts come from the per-block execution index, so a narrow query
        near the tip of a long chain no longer scans the whole chain.  Only
        transactions this node executed (i.e. whose blocks it imported) are
        visible — the same property a real node has.
        """
        upper = self.height if to_block is None else min(to_block, self.height)
        matches = []
        for number in range(max(from_block, 0), upper + 1):
            block_hash = self.store.canonical_hash(number)
            if block_hash is None:
                continue
            for receipt in self._block_receipts(block_hash):
                if not receipt.success:
                    continue
                for entry in receipt.logs:
                    if address is not None and entry.address != address:
                        continue
                    if topic is not None and entry.topic != topic:
                        continue
                    matches.append(entry)
        return matches

    def _block_receipts(self, block_hash: str) -> Sequence[Receipt]:
        """Execution receipts of a canonical block, hot or spilled."""
        receipts = self._receipts_by_block.get(block_hash)
        if receipts is not None:
            return receipts
        cold = self.config.cold_store
        if cold is not None and f"receipts:{block_hash}" in cold:
            return [Receipt.from_dict(payload) for payload in cold.get(f"receipts:{block_hash}")]
        return []

    def call_contract(self, contract_address: Address, method: str, **args: Any) -> Any:
        """Read-only contract call against head state (``eth_call``)."""
        return self.runtime.read_only_call(
            self.state,
            contract_address,
            method,
            caller=self.address,
            block_number=self.height,
            timestamp=self.head.header.timestamp,
            **args,
        )

    # ------------------------------------------------------------------
    # Transaction intake
    # ------------------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> bool:
        """Admit a signed transaction into the mempool."""
        return self.mempool.add(tx, state=self.state)

    def next_nonce_for(self, sender: Address) -> int:
        """Nonce a wallet should use next: head nonce plus pending count."""
        return self.state.nonce_of(sender) + self.mempool.pending_count(sender)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_transaction(
        self,
        state: WorldState,
        tx: Transaction,
        block_number: int,
        timestamp: float,
        miner: Address,
        credit_miner: bool = True,
    ) -> Receipt:
        """Execute one transaction against ``state`` (mutates it).

        ``credit_miner=False`` suppresses the miner fee credit: the
        parallel scheduler speculates with it off (fee credits do not
        commute with balance reads) and pays the exact fee at merge time.
        """
        if not tx.verify_signature():
            raise InvalidTransactionError(f"bad signature on {tx.tx_hash[:10]}")
        if state.nonce_of(tx.sender) != tx.nonce:
            raise NonceError(
                f"tx nonce {tx.nonce} != account nonce {state.nonce_of(tx.sender)}"
            )
        base_cost = intrinsic_gas(tx.data, is_create=tx.is_create, schedule=self.config.schedule)
        if base_cost > tx.gas_limit:
            raise InvalidTransactionError(
                f"gas limit {tx.gas_limit} below intrinsic gas {base_cost}"
            )
        if state.balance_of(tx.sender) < tx.max_cost():
            raise InsufficientFundsError(
                f"{tx.sender} cannot cover {tx.max_cost()}"
            )

        # Buy gas up front, as Ethereum does.
        state.debit(tx.sender, tx.gas_limit * tx.gas_price)
        state.bump_nonce(tx.sender)

        meter = GasMeter(tx.gas_limit, self.config.schedule)
        meter.charge(base_cost, "intrinsic")
        mark = state.checkpoint()
        receipt = Receipt(tx_hash=tx.tx_hash, success=True, gas_used=0, block_number=block_number)
        try:
            if tx.value:
                state.transfer(tx.sender, tx.to if tx.to else tx.sender, tx.value)
            if tx.is_create:
                address, logs = self.runtime.deploy(state, meter, tx, block_number, timestamp)
                receipt.contract_address = address
                receipt.logs = logs
            elif tx.is_call:
                result, logs = self.runtime.execute_call(state, meter, tx, block_number, timestamp)
                receipt.return_value = result
                receipt.logs = logs
        except (ContractRevertError, OutOfGasError, InsufficientFundsError, ChainError) as exc:
            state.rollback(mark)
            receipt.success = False
            receipt.revert_reason = str(exc)
            if isinstance(exc, OutOfGasError):
                meter.used = meter.limit
        else:
            state.commit(mark)

        receipt.gas_used = meter.used
        # Refund unused gas; fee goes to the miner.
        state.credit(tx.sender, (tx.gas_limit - meter.used) * tx.gas_price)
        if credit_miner:
            state.credit(miner, meter.used * tx.gas_price)
        return receipt

    def _execute_block(self, state: WorldState, block: Block) -> list[Receipt]:
        """Execute every transaction of ``block`` plus the coinbase reward.

        In ``execution="parallel"`` mode, blocks with at least
        ``parallel_min_txs`` transactions run through the speculate/merge
        scheduler — byte-identical to the serial order (the import-time
        state-root check independently enforces this); smaller blocks
        stay on the serial path.
        """
        if (
            self.config.execution == "parallel"
            and len(block.transactions) >= self.config.parallel_min_txs
        ):
            def execute(st: WorldState, tx: Transaction, credit_miner: bool) -> Receipt:
                return self._execute_transaction(
                    st,
                    tx,
                    block_number=block.number,
                    timestamp=block.header.timestamp,
                    miner=block.header.miner,
                    credit_miner=credit_miner,
                )

            receipts = execute_block_transactions(
                execute,
                state,
                block.transactions,
                block.header.miner,
                stats=self.execution_stats,
            )
            self.execution_stats.parallel_blocks += 1
            for receipt in receipts:
                receipt.block_hash = block.block_hash
        else:
            if self.config.execution == "parallel":
                self.execution_stats.serial_blocks += 1
            receipts = []
            for tx in block.transactions:
                receipt = self._execute_transaction(
                    state,
                    tx,
                    block_number=block.number,
                    timestamp=block.header.timestamp,
                    miner=block.header.miner,
                )
                receipt.block_hash = block.block_hash
                receipts.append(receipt)
        state.credit(block.header.miner, self.config.block_reward)
        return receipts

    def _memo_key(self, parent_root: str, block: Block) -> tuple:
        """``block``'s :class:`BlockExecutionMemo` key on a parent state
        with root ``parent_root``: everything its execution reads."""
        config = self.config
        return (
            parent_root,
            block.block_hash,
            self.runtime,
            config.block_reward,
            config.schedule,
            config.execution,
            config.parallel_min_txs,
        )

    def _advance(self, state: WorldState, block: Block) -> tuple[Receipt, ...]:
        """Take ``state`` from ``block``'s parent state to its post-state
        and check the root the header commits to.

        With a shared :class:`BlockExecutionMemo`, a block the cohort
        already executed *on a state with this state's root* — built by
        its miner, or imported by another node — is installed from the
        recorded diff (through the journaled setters, with the recorded
        account hashes, root and scheduler counts); an entry is recorded
        only when its root is the header's, so a hit needs no second
        check.  Otherwise the block executes here and, if its root checks
        out, is recorded for the others.  Raises :class:`InvalidBlockError`
        on a root mismatch, leaving ``state`` as executed — the caller
        rolls back.
        """
        memo = self.block_memo
        if memo is not None:
            key = self._memo_key(state.state_root(), block)
            known = memo.get(key)
            if known is not None:
                state.apply_diff(known.diff)
                state.adopt_hashes(known.account_hashes, known.state_root)
                self.execution_stats.add(known.stats)
                return known.receipts
        mark = state.checkpoint()
        counted = replace(self.execution_stats)
        receipts = tuple(self._execute_block(state, block))
        state.commit(mark)
        if block.header.state_root != state.state_root():
            raise InvalidBlockError(f"state root mismatch executing {block.block_hash[:10]}")
        if memo is not None:
            memo.put(key, self._execution(state, mark, block, receipts, counted))
        return receipts

    def _execution(
        self,
        state: WorldState,
        mark: int,
        block: Block,
        receipts: tuple[Receipt, ...],
        counted: ExecutionStats,
    ) -> BlockExecution:
        """What executing ``block`` on ``state`` since ``mark`` did, as a
        memo entry.  ``state``'s root is the header's and already hashed,
        so every account hash read here is cached."""
        diff = state.diff_since(mark)
        return BlockExecution(
            diff=diff,
            account_hashes={address: state.account_hash(address) for address in diff},
            state_root=block.header.state_root,
            receipts=receipts,
            stats=self.execution_stats.since(counted),
        )

    # ------------------------------------------------------------------
    # Block building (mining)
    # ------------------------------------------------------------------

    def build_block_candidate(self, timestamp: float, difficulty: int) -> Block:
        """Assemble and execute a block candidate on top of the head.

        The caller (network simulator or test) supplies the difficulty and
        seals the header, which commits to the post-execution state root,
        with a nonce.  Execution runs on a copy-on-write overlay of the head
        state — only accounts the candidate touches are cloned, and its
        state root re-hashes only those accounts (untouched ones reuse the
        head's cached hashes).

        With a shared :class:`BlockExecutionMemo`, what the build executed
        is kept for :meth:`seal_and_import`, so the build is the block's
        one execution in the cohort.
        """
        parent = self.head
        txs = self.mempool.select(
            self.state,
            max_count=self.config.max_txs_per_block,
            max_gas=UNBOUNDED_BLOCK_GAS,
        )
        scratch = self.state.overlay()
        header = BlockHeader(
            parent_hash=parent.block_hash,
            number=parent.number + 1,
            timestamp=max(timestamp, parent.header.timestamp + 1e-9),
            miner=self.address,
            difficulty=difficulty,
            tx_root="",
            state_root="",
            gas_limit=UNBOUNDED_BLOCK_GAS,
        )
        block = Block(header=header, transactions=txs)
        mark = scratch.checkpoint()
        counted = replace(self.execution_stats)
        receipts = tuple(self._execute_block(scratch, block))
        scratch.commit(mark)
        header.gas_used = sum(receipt.gas_used for receipt in receipts)
        header.tx_root = block.compute_tx_root()
        header.state_root = scratch.state_root()
        if self.block_memo is not None:
            self._built = _BuiltCandidate(
                block=block,
                payload=header.sealing_payload(),
                parent_root=self.state.state_root(),
                execution=self._execution(scratch, mark, block, receipts, counted),
            )
        return block

    # ------------------------------------------------------------------
    # Block import
    # ------------------------------------------------------------------

    def validate_block(self, block: Block) -> None:
        """Stateless checks; raises on failure.  The difficulty its producer
        supplied is taken as declared and the nonce is not checked: sealing
        is statistical (:mod:`repro.chain.pow`)."""
        if not block.body_matches_header():
            raise InvalidBlockError("tx root mismatch")
        if block.header.parent_hash not in self.store:
            raise InvalidBlockError(f"unknown parent {block.header.parent_hash}")
        parent = self.store.get(block.header.parent_hash)
        if block.header.timestamp <= parent.header.timestamp:
            raise InvalidBlockError("timestamp not after parent")
        for tx in block.transactions:
            if not tx.verify_signature():
                raise InvalidBlockError(f"block contains forged tx {tx.tx_hash[:10]}")

    def import_block(self, block: Block) -> Optional[ReorgInfo]:
        """Validate, store, and (if canonical) execute ``block``.

        Returns the reorg info when the head moved.  Unknown-parent blocks
        are parked as orphans and retried when the parent arrives.
        """
        if block.block_hash in self.store:
            return None
        if block.header.parent_hash not in self.store:
            self._orphans.setdefault(block.header.parent_hash, []).append(block)
            return None
        self.validate_block(block)
        reorg = self.store.add(block)
        if reorg is not None:
            self._apply_head_change(reorg)
            if reorg.rolled_back:
                self.reorgs_seen += 1
        self._adopt_orphans(block.block_hash)
        return reorg

    def _adopt_orphans(self, parent_hash: str) -> None:
        for orphan in self._orphans.pop(parent_hash, []):
            try:
                self.import_block(orphan)
            except InvalidBlockError:
                continue

    def _apply_head_change(self, reorg: ReorgInfo) -> None:
        """Re-execute state along the new canonical branch.

        The head state rolls back to the common ancestor's journal mark in
        O(entries the rolled-back blocks touched); only when the mark has
        been pruned (reorg deeper than ``state_history``) does the node
        fall back to a replay from genesis.  Transactions from rolled-back
        blocks are re-injected into the mempool (as Geth does) so work
        mined on a losing branch is not silently dropped; stale ones are
        purged after the new state is in.
        """
        rolled_back_txs: list[Transaction] = []
        for block_hash in reorg.rolled_back:
            txs = self.store.get(block_hash).transactions
            rolled_back_txs.extend(txs)
            self._forget_execution(block_hash, txs)
        base_hash = reorg.common_ancestor
        base_mark = self._state_marks.get(base_hash)
        if base_mark is not None and self.state.can_rollback_to(base_mark):
            state = self.state
            if state.checkpoint() != base_mark:
                state.rollback(base_mark)
        else:
            state = self._replay_to(base_hash)
        ancestor_mark = state.checkpoint()
        for position, block_hash in enumerate(reorg.applied):
            block = self.store.get(block_hash)
            try:
                receipts = self._advance(state, block)
            except InvalidBlockError:
                self._abort_head_change(reorg, state, ancestor_mark, reorg.applied[:position])
                raise
            self._record_execution(block, receipts, state)
            self._maybe_snapshot(block, state)
            self.mempool.remove(tx.tx_hash for tx in block.transactions)
        if state.can_rollback_to(ancestor_mark):
            state.commit(ancestor_mark)  # abort window closed; mark retired
        self.state = state
        self._prune_state_history()
        for tx in rolled_back_txs:
            try:
                self.mempool.add(tx, state=self.state)
            except MempoolError:
                continue  # already mined on the new branch, or stale
        self.mempool.drop_stale(self.state)
        if reorg.rolled_back:
            # Heights below the spill floor may have new canonical blocks
            # now; re-walk them (demote/spill are idempotent).
            ancestor_number = self.store.number_of(reorg.common_ancestor)
            self._spill_floor = min(self._spill_floor, ancestor_number + 1)
        self._spill_cold()

    def _record_execution(
        self, block: Block, receipts: Sequence[Receipt], state: WorldState
    ) -> None:
        """Index a just-executed canonical block: receipts by transaction
        and by block, and the journal mark reorgs roll back to."""
        for receipt in receipts:
            self.receipts[receipt.tx_hash] = receipt
        self._receipts_by_block[block.block_hash] = receipts
        self._state_marks[block.block_hash] = state.checkpoint()

    def _forget_execution(self, block_hash: str, txs: Sequence[Transaction]) -> None:
        """Drop what :meth:`_record_execution` (and a later spill) indexed
        for a block that left the canonical chain, so its transactions —
        back in the mempool — no longer read as mined."""
        self._state_marks.pop(block_hash, None)
        self._receipts_by_block.pop(block_hash, None)
        for tx in txs:
            self.receipts.pop(tx.tx_hash, None)
            self._receipt_location.pop(tx.tx_hash, None)

    def _abort_head_change(
        self,
        reorg: ReorgInfo,
        state: WorldState,
        ancestor_mark: int,
        applied_so_far: list[str],
    ) -> None:
        """Restore the pre-reorg canonical view after an applied block
        failed its state-root check.

        State rolls back to the common ancestor, the losing-branch blocks
        that fork choice rolled back are re-executed (they validated when
        first applied), and the store's head switch is reverted — so the
        node keeps serving and mining the old branch instead of diverging
        from its own chain store.
        """
        state.rollback(ancestor_mark)
        for block_hash in applied_so_far:
            self._forget_execution(block_hash, self.store.get(block_hash).transactions)
        for block_hash in reversed(reorg.rolled_back):  # ancestor-side first
            block = self.store.get(block_hash)
            self._record_execution(block, self._advance(state, block), state)
        self.store.revert_head(reorg)
        self.state = state

    def _prune_state_history(self) -> None:
        """Bound journal memory: drop marks (and their undo records) for
        blocks more than ``state_history`` below the head."""
        history = self.config.state_history
        if history is None:
            return
        cutoff = self.height - history
        if cutoff <= 0:
            return
        for block_hash in [
            bh for bh in self._state_marks if self.store.number_of(bh) < cutoff
        ]:
            del self._state_marks[block_hash]
        if self._state_marks:
            floor = min(self._state_marks.values())
            if self.state.can_rollback_to(floor):
                self.state.prune_journal(floor)

    def _replay_to(self, block_hash: str) -> WorldState:
        """Rebuild state by replaying the lineage ending at ``block_hash``.

        The walk down the lineage stops at the first block with a
        root-verified snapshot in the cold store, so a reorg deeper than
        the journal horizon replays ``snapshot..target`` instead of
        ``genesis..target`` (spilled blocks revive through the cold store
        either way).  Resets the per-block journal marks to the replayed
        lineage (marks into the abandoned state object would be
        meaningless).
        """
        cold = self.config.cold_store
        path: list[Block] = []
        cursor = block_hash
        state: Optional[WorldState] = None
        base_hash = self.store.genesis_hash
        while self.store.number_of(cursor) > 0:
            if cold is not None and snapshot_key(cursor) in cold:
                block = self.store.get(cursor)
                try:
                    state = install_snapshot(
                        cold.get(snapshot_key(cursor)),
                        expected_state_root=block.header.state_root,
                    )
                except SnapshotError:
                    pass  # corrupt checkpoint: keep walking toward genesis
                else:
                    base_hash = cursor
                    self.snapshot_replays += 1
                    break
            path.append(self.store.get(cursor))
            cursor = self.store.parent_of(cursor)
        if state is None:
            state = self.genesis_spec.build_state()
        state.flatten_journal()
        self._state_marks = {base_hash: state.checkpoint()}
        self.last_replay_blocks = len(path)
        for block in reversed(path):
            receipts = self._advance(state, block)
            self._receipts_by_block[block.block_hash] = receipts
            self._state_marks[block.block_hash] = state.checkpoint()
            self._maybe_snapshot(block, state)
        return state

    # ------------------------------------------------------------------
    # Scale-out: cold spilling, snapshots, fast sync
    # ------------------------------------------------------------------

    def _maybe_snapshot(self, block: Block, state: WorldState) -> None:
        """Persist a world-state checkpoint if ``block`` is on the grid.

        The cold store is content-addressed and shared across a cohort, so
        the first node to execute the block pays the encode and every
        other node's call is a dedup hit.
        """
        interval = self.config.snapshot_interval
        cold = self.config.cold_store
        if cold is None or interval <= 0 or block.number == 0 or block.number % interval:
            return
        key = snapshot_key(block.block_hash)
        if key in cold:
            return
        try:
            cold.put(key, encode_snapshot(state, block))
        except SerializationError:
            self.snapshots_skipped += 1
            return
        self.snapshots_taken += 1

    def _spill_cold(self) -> None:
        """Demote canonical blocks (and their receipts) below the hot
        window into the cold store; resident set stays O(hot window)."""
        cold = self.config.cold_store
        window = self.config.hot_window
        if cold is None or window is None:
            return
        target = self.height - window
        while self._spill_floor <= target:
            number = self._spill_floor
            block_hash = self.store.canonical_hash(number)
            if block_hash is not None:
                try:
                    self._spill_receipts(block_hash)
                    self.store.demote(block_hash)
                except SerializationError:
                    pass  # non-canonical payload: keep this block hot
            self._spill_floor = number + 1

    def _spill_receipts(self, block_hash: str) -> None:
        """Move one block's receipts to cold storage (idempotent)."""
        receipts = self._receipts_by_block.get(block_hash)
        if receipts is None:
            return
        self.config.cold_store.put(
            f"receipts:{block_hash}", lambda: [receipt.to_dict() for receipt in receipts]
        )
        del self._receipts_by_block[block_hash]
        for receipt in receipts:
            self.receipts.pop(receipt.tx_hash, None)
            self._receipt_location[receipt.tx_hash] = block_hash

    def sync_from(
        self,
        snapshot_payload: dict,
        pre_blocks: list[Block],
        tail_blocks: list[Block],
    ) -> int:
        """Fast-forward sync: adopt a snapshot instead of replaying history.

        ``pre_blocks`` is the ancestor-first lineage from just above this
        node's head through the snapshot's block; ``tail_blocks`` continue
        from there to the provider's head.  The pre blocks are validated
        structurally (header/body commitment, linkage, timestamps) and
        stored *without execution* — the snapshot replaces their
        effects, and it is trusted only after the rebuilt state hashes to
        the ``state_root`` the last pre block's header commits to.  The
        tail imports through the normal execution path.  Receipts for the
        skipped range are not materialized (a real snap-synced node has
        the same property).

        Returns the number of tail blocks imported (i.e. executed);
        raises :class:`InvalidBlockError` or :class:`SnapshotError` —
        leaving local state untouched — when the payloads do not line up.
        """
        if not pre_blocks:
            raise InvalidBlockError("snapshot sync requires at least one pre block")
        if pre_blocks[0].header.parent_hash != self.store.head_hash:
            raise InvalidBlockError(
                "snapshot sync must fast-forward the current head"
            )
        if snapshot_payload.get("block_hash") != pre_blocks[-1].block_hash:
            raise InvalidBlockError("snapshot does not match the last pre block")
        parent = self.head
        for block in pre_blocks:
            if block.header.parent_hash != parent.block_hash:
                raise InvalidBlockError("pre blocks are not a linked lineage")
            if block.number != parent.number + 1:
                raise InvalidBlockError("pre block number out of sequence")
            if block.header.timestamp <= parent.header.timestamp:
                raise InvalidBlockError("pre block timestamp not after parent")
            if not block.body_matches_header():
                raise InvalidBlockError("pre block tx root mismatch")
            parent = block
        pivot = pre_blocks[-1]
        state = install_snapshot(
            snapshot_payload, expected_state_root=pivot.header.state_root
        )
        # Structure is verified and the snapshot root-checked: commit.
        for block in pre_blocks:
            self.store.add(block)
        state.flatten_journal()
        self.state = state
        self._state_marks = {pivot.block_hash: state.checkpoint()}
        self.snap_syncs += 1
        self.snap_skipped_blocks += len(pre_blocks)
        executed = 0
        for block in tail_blocks:
            if block.block_hash in self.store:
                continue
            self.import_block(block)
            executed += 1
        self.mempool.drop_stale(self.state)
        self._spill_cold()
        return executed

    def scale_stats(self) -> dict:
        """Storage and execution counters for ``chain_stats()``."""
        return {
            "storage": {
                "hot_blocks": self.store.hot_count(),
                "spilled_blocks": self.store.spilled_count(),
                "hot_receipt_blocks": len(self._receipts_by_block),
                "cold_receipt_txs": len(self._receipt_location),
                "snapshots_taken": self.snapshots_taken,
                "snapshots_skipped": self.snapshots_skipped,
                "snapshot_replays": self.snapshot_replays,
                "last_replay_blocks": self.last_replay_blocks,
                "snap_syncs": self.snap_syncs,
                "snap_skipped_blocks": self.snap_skipped_blocks,
            },
            "execution": self.execution_stats.as_dict(),
        }

    def seal_and_import(self, block: Block, nonce: int) -> Optional[ReorgInfo]:
        """Attach a nonce to a locally built candidate and import it.

        If ``block`` is the last candidate built here and its sealed header
        differs from the built one in the nonce alone, the build's
        execution goes into the shared memo under the sealed block's key
        (receipts re-pointed at the sealed hash), and the import below
        installs it as every other node's will.  A header changed in any
        other field between build and seal commits to something the build
        did not execute, so that block executes on import like any other.
        """
        block.header.nonce = nonce
        self.blocks_mined += 1
        built, self._built = self._built, None
        if (
            built is not None
            and built.block is block
            and block.header.sealing_payload() == built.payload
        ):
            for receipt in built.execution.receipts:
                receipt.block_hash = block.block_hash
            self.block_memo.put(self._memo_key(built.parent_root, block), built.execution)
        return self.import_block(block)
