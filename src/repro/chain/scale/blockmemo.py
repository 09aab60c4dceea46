"""One execution per block per cohort.

Executing a block is a pure function of (parent state, block, the node
parameters execution reads).  In the one-process simulator every node of
a cohort imports every block, so without sharing each block's
transactions run, its dirty accounts are re-encoded and the full
``{address: hash}`` map is re-hashed once per node.  A
:class:`BlockExecutionMemo` is the cohort's shared record of that
function.  A block's first execution is its miner's candidate build:
sealing records what the build executed under the sealed block's key
(only if the seal changed the header's nonce and nothing else), so the
miner's own import installs it like everyone else's.  A block no one
recorded that way is stored by the first node to execute it on a given
parent state.  Every later node *whose own state root equals the
recorded parent root* installs the outcome instead of recomputing it.

What is shared is execution and hashing only.  Every node still
validates the block itself (tx-root commitment, signatures, PoW,
linkage).  The root a node ends on is the header's ``state_root``:
checked against the execution that recorded the outcome (the key
commits to the header, so it is the same check), or against its own
execution when it misses.  The outcome goes in through the journaled
setters, so rollback, reorg and history pruning see an ordinary
executed block.  A node whose state differs from the recorded parent —
divergent, tampered with, or simply elsewhere in the tree — has a
different key, misses, and executes for real; an execution whose root
does not match the block header is never recorded, and neither is a build
whose header was edited before sealing.

Entries share storage values and receipts with the nodes that use them
(immutable by the convention ``WorldState.overlay`` and ``ColdStore.get``
already rely on; receipts are handed out as a tuple).  The memo belongs
to one run — the driver creates it and hands it to its nodes, as it does
the shared :class:`~repro.chain.scale.ColdStore` — and is bounded by
:data:`CAPACITY`, least recently used first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.chain.crypto import Address
from repro.chain.scale.executor import ExecutionStats
from repro.chain.transaction import Receipt

#: Entries kept.  A block is imported by the whole cohort within a few
#: gossip latencies of being mined; later readers are rejoining peers and
#: deep-reorg replays, which walk recent history.  Measured before it was
#: settled (``peak_rss_mb`` of the benchmark's most allocator-sensitive
#: workload, ``paper3_tradeoff``; no memo 176.8): 64 entries 177.3,
#: unbounded 176.8, but 16 entries 182.9 — on that workload a smaller
#: memo is not a smaller process.
CAPACITY = 64


@dataclass(frozen=True)
class BlockExecution:
    """Outcome of executing one block on one parent state."""

    diff: dict[Address, dict]            # WorldState.diff_since over the block
    account_hashes: dict[Address, str]   # post-state hash of every diffed account
    state_root: str                      # post-state root (== the header's)
    receipts: tuple[Receipt, ...]        # in transaction order
    stats: ExecutionStats                # what execution added to the node's counters


class BlockExecutionMemo:
    """Bounded ``key -> BlockExecution`` map shared by a cohort's nodes.

    The key is built by the node: ``(parent state root, block hash,
    execution-relevant node parameters)``.  ``hits``/``misses``/
    ``evictions`` are for tests and tooling; they are deliberately not
    part of ``chain_stats()``.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, BlockExecution]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[BlockExecution]:
        """The recorded execution for ``key``, or ``None``."""
        execution = self._entries.get(key)
        if execution is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return execution

    def put(self, key: Hashable, execution: BlockExecution) -> None:
        """Record ``execution``, evicting the least recently used entry
        beyond capacity."""
        self._entries[key] = execution
        while len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)
            self.evictions += 1
