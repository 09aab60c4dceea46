"""Chain scale-out: parallel execution, cold storage, and snapshots.

Four pillars for thousand-peer, long-horizon runs, each independent and
each byte-neutral with respect to consensus:

* :mod:`repro.chain.scale.executor` — deterministic speculate/merge
  scheduler that speculates a block's transactions independently and
  merges the conflict-free ones, producing block hashes, receipts, and
  state roots byte-identical to the serial order;
* :mod:`repro.chain.scale.blockmemo` — a cohort-shared, key-verified
  record of block executions, so a block's transactions run and its
  accounts are hashed once per cohort, not once per node;
* :mod:`repro.chain.scale.coldstore` — append-only content-addressed
  segment file for cold blocks, receipts, and snapshots, so a node's
  resident set is O(hot window) instead of O(chain length);
* :mod:`repro.chain.scale.snapshot` — root-verified world-state
  checkpoints plus the checkpoint+tail sync payloads a rejoining peer
  replays instead of the whole chain.

This package is the library's only sanctioned file-I/O surface (the
``io-discipline`` lint rule enforces that), and it must never import
:mod:`repro.chain.node` — the node injects its execution callable into
the executor, keeping the dependency one-directional.
"""

from repro.chain.scale.blockmemo import BlockExecution, BlockExecutionMemo
from repro.chain.scale.coldstore import ColdStore, ColdStoreStats
from repro.chain.scale.executor import (
    ExecutionStats,
    SpeculationResult,
    execute_block_transactions,
    speculate_inline,
)
from repro.chain.scale.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    encode_snapshot,
    install_snapshot,
    snapshot_key,
)

__all__ = [
    "BlockExecution",
    "BlockExecutionMemo",
    "ColdStore",
    "ColdStoreStats",
    "ExecutionStats",
    "SpeculationResult",
    "execute_block_transactions",
    "speculate_inline",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "encode_snapshot",
    "install_snapshot",
    "snapshot_key",
]
