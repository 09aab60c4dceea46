"""Deterministic parallel transaction execution (speculate → merge).

The scheduler exploits what the PR-2 journal already knows: every state
mutation a transaction makes is one undo record naming the touched key.
Execution proceeds in two phases:

1. **Speculate.**  Every transaction runs against a *tracking overlay* of
   the pre-block state — a copy-on-write child that records the exact
   key set the transaction read (balances, nonces, code, storage slots)
   while the journal records what it wrote.  Speculations are mutually
   independent: each sees only the pre-block state.
2. **Merge.**  Transactions are committed in canonical block order.  A
   transaction whose read+write set is disjoint from everything earlier
   transactions wrote is *clean*: its speculated forward diff (final
   values per touched key) is applied through the journaled setters and
   its speculated receipt is reused verbatim.  Any overlap — or a failed
   speculation — makes it *dirty*: it re-executes serially against the
   real state, exactly as the serial path would have.

Byte-identity argument: merge processes transactions in block order, so
when transaction *i* is considered, the state equals the serial state
after transactions ``0..i-1``.  A clean transaction read nothing those
transactions wrote, hence its speculated execution — reads, gas, logs,
writes — is what serial execution would have produced; applying its
final values yields the serial post-state.  Induction carries this to
the last transaction, so block hashes, receipts, and state roots are
identical to serial execution (the node's state-root check on import is
a second, independent enforcement of the same property).

Miner fees do not commute with balance reads, so speculation suppresses
the per-transaction miner credit (``credit_miner=False``); the merge
credits the exact fee in order for clean transactions, and any
transaction that reads or writes the miner's balance — including
``sender == miner`` — is forced dirty.

This module must not import :mod:`repro.chain.node`; the node passes its
transaction-execution callable in, keeping the dependency one-way.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from typing import Any, Callable, Optional, Sequence

from repro.chain.crypto import Address
from repro.chain.state import WorldState
from repro.chain.transaction import Receipt, Transaction
from repro.errors import ChainError

#: ``execute(state, tx, credit_miner) -> Receipt`` — the node's bound
#: transaction executor with block number/timestamp/miner already applied.
ExecuteFn = Callable[[WorldState, Transaction, bool], Receipt]


@dataclass
class ExecutionStats:
    """Per-node scheduler counters (``chain_stats()["execution"]``)."""

    parallel_blocks: int = 0      # blocks merged from speculations
    serial_blocks: int = 0        # blocks below the parallel threshold
    speculated_txs: int = 0       # transactions speculatively executed
    clean_txs: int = 0            # merged from their forward diff
    dirty_txs: int = 0            # re-executed serially (conflict/miner)
    failed_speculations: int = 0  # speculations that raised (forced dirty)

    def as_dict(self) -> dict:
        return {
            "parallel_blocks": self.parallel_blocks,
            "serial_blocks": self.serial_blocks,
            "speculated_txs": self.speculated_txs,
            "clean_txs": self.clean_txs,
            "dirty_txs": self.dirty_txs,
            "failed_speculations": self.failed_speculations,
        }

    def since(self, before: "ExecutionStats") -> "ExecutionStats":
        """Counts added after the copy ``before`` was taken."""
        return ExecutionStats(*(now - then for now, then in zip(astuple(self), astuple(before))))

    def add(self, delta: "ExecutionStats") -> None:
        """Count ``delta`` (a :meth:`since` result) again."""
        for spec in fields(self):
            setattr(self, spec.name, getattr(self, spec.name) + getattr(delta, spec.name))


@dataclass
class SpeculationResult:
    """What one speculative execution learned about its transaction."""

    index: int
    ok: bool
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    diff: dict = field(default_factory=dict)
    receipt: Optional[Receipt] = None


class _TrackingOverlay(WorldState):
    """Copy-on-write overlay that records the keys read through it.

    Read keys: ``("b", addr)`` balance, ``("n", addr)`` nonce,
    ``("c", addr)`` code, ``("s", addr, key)`` one storage slot, and the
    conservative whole-account marker ``("k", addr)`` for prefix scans
    (a scan's result changes when *any* slot of the account appears or
    disappears).  Write keys come from the journal, not from tracking.
    """

    def __init__(self, base: WorldState) -> None:
        super().__init__(base=base)
        self.reads: set[tuple] = set()

    def balance_of(self, address: Address) -> int:
        self.reads.add(("b", address))
        return super().balance_of(address)

    def nonce_of(self, address: Address) -> int:
        self.reads.add(("n", address))
        return super().nonce_of(address)

    def is_contract(self, address: Address) -> bool:
        self.reads.add(("c", address))
        return super().is_contract(address)

    def contract_name_of(self, address: Address):
        self.reads.add(("c", address))
        return super().contract_name_of(address)

    def storage_get(self, address: Address, key: str, default: Any = None) -> Any:
        self.reads.add(("s", address, key))
        return super().storage_get(address, key, default)

    def storage_has(self, address: Address, key: str) -> bool:
        self.reads.add(("s", address, key))
        return super().storage_has(address, key)

    def storage_keys(self, address: Address, prefix: str = "") -> list[str]:
        self.reads.add(("k", address))
        return super().storage_keys(address, prefix)


def _write_keys(diff: dict) -> frozenset:
    """Conflict keys of a :meth:`WorldState.diff_since` forward diff."""
    keys: set[tuple] = set()
    for address, entry in diff.items():
        if "balance" in entry:
            keys.add(("b", address))
        if "nonce" in entry:
            keys.add(("n", address))
        if "contract_name" in entry:
            keys.add(("c", address))
        for key in (*entry["storage_set"], *entry["storage_del"]):
            keys.add(("s", address, key))
    return frozenset(keys)


def _speculate_one(
    execute: ExecuteFn,
    base: WorldState,
    tx: Transaction,
    index: int,
) -> SpeculationResult:
    """Run one transaction on a tracking overlay of the pre-block state."""
    overlay = _TrackingOverlay(base)
    mark = overlay.checkpoint()
    try:
        receipt = execute(overlay, tx, False)
    except ChainError:
        overlay.rollback(mark)  # overlay is discarded; discharge the mark
        return SpeculationResult(index=index, ok=False)
    diff = overlay.diff_since(mark)
    return SpeculationResult(
        index=index,
        ok=True,
        reads=frozenset(overlay.reads),
        writes=_write_keys(diff),
        diff=diff,
        receipt=receipt,
    )


def speculate_inline(
    execute: ExecuteFn,
    base: WorldState,
    txs: Sequence[Transaction],
) -> list[SpeculationResult]:
    """Speculate every transaction against ``base``, in block order."""
    return [_speculate_one(execute, base, tx, i) for i, tx in enumerate(txs)]


def _touches_miner(result: SpeculationResult, miner: Address) -> bool:
    """Fee credits make the miner balance order-dependent; any read or
    write of it (including ``sender == miner``) forfeits the fast path."""
    key = ("b", miner)
    return key in result.reads or key in result.writes


def _conflicts(
    result: SpeculationResult,
    written: set[tuple],
    storage_written_accounts: set[Address],
) -> bool:
    """True iff the speculation observed (or overwrites) anything an
    earlier transaction of the block wrote."""
    for key in result.reads:
        if key[0] == "k":
            if key[1] in storage_written_accounts:
                return True
        elif key in written:
            return True
    return any(key in written for key in result.writes)


def _absorb_writes(
    keys: frozenset,
    written: set[tuple],
    storage_written_accounts: set[Address],
) -> None:
    for key in keys:
        written.add(key)
        if key[0] == "s":
            storage_written_accounts.add(key[1])


def execute_block_transactions(
    execute: ExecuteFn,
    state: WorldState,
    txs: Sequence[Transaction],
    miner: Address,
    stats: Optional[ExecutionStats] = None,
) -> list[Receipt]:
    """Execute a block's transactions via speculate/merge.

    Mutates ``state`` to the exact post-transaction state serial
    execution would produce (coinbase reward excluded — the caller pays
    it, as in the serial path) and returns the per-transaction receipts
    in block order.
    """
    specs = speculate_inline(execute, state, txs)
    if stats is not None:
        stats.speculated_txs += len(specs)
    receipts: list[Receipt] = []
    written: set[tuple] = set()
    storage_written_accounts: set[Address] = set()
    for tx, spec in zip(txs, specs):
        clean = (
            spec.ok
            and not _touches_miner(spec, miner)
            and not _conflicts(spec, written, storage_written_accounts)
        )
        if clean:
            state.apply_diff(spec.diff)
            state.credit(miner, spec.receipt.gas_used * tx.gas_price)
            _absorb_writes(spec.writes, written, storage_written_accounts)
            receipt = spec.receipt
            if stats is not None:
                stats.clean_txs += 1
        else:
            mark = state.checkpoint()
            receipt = execute(state, tx, True)
            _absorb_writes(
                _write_keys(state.diff_since(mark)), written, storage_written_accounts
            )
            state.commit(mark)
            if stats is not None:
                stats.dirty_txs += 1
                if not spec.ok:
                    stats.failed_speculations += 1
        receipts.append(receipt)
    return receipts
