"""Pending-transaction pool.

Each node keeps a mempool of gossiped-but-unmined transactions.  Admission
enforces signatures, replay protection, and (optionally) balance coverage;
block building pops transactions ordered by gas price then nonce, mirroring
Geth's default miner policy.

The pool maintains persistent per-sender queues sorted by nonce (stable for
equal nonces), so :meth:`select` does not rebuild sender indexes per block:
it seeds a gas-price heap with each sender's executable head transaction
and pops/advances in O(chosen · log senders).  :meth:`Mempool.pending_count`
answers per-sender pending counts in O(1), which is what wallets need for
``next_nonce_for`` instead of scanning the whole pool.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Iterable, Optional

from repro.chain.crypto import Address
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.errors import MempoolError


class Mempool:
    """Bounded pool of pending transactions keyed by hash."""

    def __init__(self, max_size: int = 100_000) -> None:
        self.max_size = max_size
        self._by_hash: dict[str, Transaction] = {}
        # Per-sender queue sorted by nonce; arrival order breaks nonce ties
        # (the first-seen transaction wins selection, as before).  The
        # parallel nonce list keeps insertion/removal at O(log n) search.
        self._by_sender: dict[Address, list[Transaction]] = {}
        self._sender_nonces: dict[Address, list[int]] = {}

    def __len__(self) -> int:
        return len(self._by_hash)

    def __contains__(self, tx_hash: str) -> bool:
        return tx_hash in self._by_hash

    def pending(self) -> list[Transaction]:
        """All pending transactions (unordered)."""
        return list(self._by_hash.values())

    def pending_count(self, sender: Address) -> int:
        """How many pending transactions ``sender`` has (O(1))."""
        return len(self._by_sender.get(sender, ()))

    def add(self, tx: Transaction, state: Optional[WorldState] = None) -> bool:
        """Admit ``tx``; returns ``False`` for benign duplicates.

        Raises :class:`MempoolError` for invalid transactions (bad signature,
        stale nonce, unaffordable cost, pool full).  ``state`` enables the
        stateful checks; without it only the signature is checked.
        """
        tx_hash = tx.tx_hash
        if tx_hash in self._by_hash:
            return False
        if len(self._by_hash) >= self.max_size:
            raise MempoolError(f"mempool full ({self.max_size})")
        if not tx.verify_signature():
            raise MempoolError(f"rejecting unsigned/forged tx {tx_hash[:10]}")
        if state is not None:
            account_nonce = state.nonce_of(tx.sender)
            if tx.nonce < account_nonce:
                raise MempoolError(
                    f"stale nonce {tx.nonce} < account nonce {account_nonce} for {tx.sender}"
                )
            if state.balance_of(tx.sender) < tx.max_cost():
                raise MempoolError(
                    f"{tx.sender} cannot cover max cost {tx.max_cost()}"
                )
        self._by_hash[tx_hash] = tx
        queue = self._by_sender.setdefault(tx.sender, [])
        nonces = self._sender_nonces.setdefault(tx.sender, [])
        position = bisect_right(nonces, tx.nonce)
        nonces.insert(position, tx.nonce)
        queue.insert(position, tx)
        return True

    def _unindex(self, tx: Transaction) -> None:
        """Drop ``tx`` from its sender queue (``_by_hash`` already popped)."""
        queue = self._by_sender.get(tx.sender)
        if not queue:
            return
        nonces = self._sender_nonces[tx.sender]
        index = bisect_left(nonces, tx.nonce)
        tx_hash = tx.tx_hash
        while index < len(queue) and queue[index].nonce == tx.nonce:
            if queue[index].tx_hash == tx_hash:
                del queue[index]
                del nonces[index]
                break
            index += 1
        if not queue:
            del self._by_sender[tx.sender]
            del self._sender_nonces[tx.sender]

    def remove(self, tx_hashes: Iterable[str]) -> int:
        """Drop mined/invalidated transactions; returns how many were present."""
        removed = 0
        for tx_hash in tx_hashes:
            tx = self._by_hash.pop(tx_hash, None)
            if tx is not None:
                self._unindex(tx)
                removed += 1
        return removed

    def select(self, state: WorldState, max_count: Optional[int] = None, max_gas: Optional[int] = None) -> list[Transaction]:
        """Choose transactions for a block candidate.

        Ordering: gas price descending, then per-sender nonce ascending.
        Transactions whose nonce is not currently executable (gap, or a
        stale/duplicate transaction at the queue head) are skipped but kept
        in the pool.  A sender whose head transaction exceeds the remaining
        gas budget is blocked for the rest of the selection (the budget
        only shrinks), matching the previous scan-based policy.
        """
        chosen: list[Transaction] = []
        gas_budget = max_gas if max_gas is not None else float("inf")
        # One heap entry per sender: their currently executable head tx.
        heap: list[tuple[int, Address, int]] = []
        position: dict[Address, int] = {}
        for sender, queue in self._by_sender.items():
            head = queue[0]
            if head.nonce == state.nonce_of(sender):
                heap.append((-head.gas_price, sender, head.nonce))
                position[sender] = 0
        heapq.heapify(heap)
        while heap:
            if max_count is not None and len(chosen) >= max_count:
                break
            _neg_price, sender, nonce = heapq.heappop(heap)
            queue = self._by_sender[sender]
            index = position[sender]
            tx = queue[index]
            if tx.gas_limit > gas_budget:
                continue  # blocked for this block; stays pending
            chosen.append(tx)
            gas_budget -= tx.gas_limit
            index += 1
            position[sender] = index
            if index < len(queue) and queue[index].nonce == nonce + 1:
                successor = queue[index]
                heapq.heappush(heap, (-successor.gas_price, sender, successor.nonce))
        return chosen

    def drop_stale(self, state: WorldState) -> int:
        """Purge transactions whose nonce is already consumed on-chain.

        Stale transactions form a prefix of each nonce-sorted sender queue,
        so the scan is proportional to senders plus removals.
        """
        stale = []
        for sender, queue in self._by_sender.items():
            account_nonce = state.nonce_of(sender)
            for tx in queue:
                if tx.nonce >= account_nonce:
                    break
                stale.append(tx.tx_hash)
        return self.remove(stale)
