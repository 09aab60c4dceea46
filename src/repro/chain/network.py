"""Simulated p2p gossip network binding nodes, PoW, and the event engine.

This is the stand-in for the paper's three-VM VirtualBox LAN: nodes exchange
transactions and blocks over links with configurable latency; miners run
statistically sampled PoW (exponential inter-block times proportional to
difficulty / hashrate); partitions and message drops can be injected for
fault experiments.

Gossip delivery is batched: every destination has one outbox and at most
one scheduled flush event at a time, and messages whose sampled arrivals
fall inside the configurable ``batch_window`` are delivered together (in
arrival order, never early).  Burst traffic — the deployment phase, a
cohort submitting in the same instant, block storms during fork races —
costs one simulator event per destination instead of one per message.

The combination reproduces Figure 2's workflow: (a) clients submit
transactions, (b) PoW selects a leader, (c) the leader forms a block
candidate, (d) the others verify and adopt it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.chain.block import Block
from repro.chain.node import Node
from repro.chain.pow import ProofOfWork
from repro.chain.scale import snapshot_key
from repro.chain.transaction import Transaction
from repro.errors import ChainError, InvalidBlockError, MempoolError, NetworkError
from repro.utils.events import Simulator


@dataclass
class LatencyModel:
    """Per-link delay: ``base + uniform(0, jitter)`` seconds."""

    base: float = 0.05
    jitter: float = 0.02

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one link delay."""
        if self.jitter <= 0:
            return self.base
        return self.base + float(rng.uniform(0.0, self.jitter))


@dataclass
class _MinerState:
    node: Node
    hashrate: float
    current_job: Optional[object] = None  # scheduled Event for block discovery
    enabled: bool = True


@dataclass
class _Outbox:
    """Per-destination delivery queue behind a single scheduled flush.

    Each queued message keeps its own sampled arrival time; one event per
    destination delivers every message due by the flush time in arrival
    order, instead of one simulator event per message.  Gossip bursts
    (contract deployment, simultaneous submissions, block storms) collapse
    from O(messages) heap traffic to O(destinations).
    """

    pending: list[tuple[float, int, str, object]]  # (arrival, seq, kind, payload)
    event: Optional[object] = None  # scheduled flush Event
    due: float = float("inf")       # when that flush fires
    seq: int = 0


@dataclass
class NetworkStats:
    """Counters the chain benchmarks report."""

    txs_broadcast: int = 0
    blocks_broadcast: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    batches_delivered: int = 0
    blocks_mined: int = 0
    reorgs: int = 0
    syncs: int = 0
    snap_syncs: int = 0            # syncs served as snapshot + tail
    snap_skipped_blocks: int = 0   # blocks adopted without execution
    snap_executed_blocks: int = 0  # tail blocks executed after a snapshot

    def as_dict(self) -> dict:
        return {
            "txs_broadcast": self.txs_broadcast,
            "blocks_broadcast": self.blocks_broadcast,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "batches_delivered": self.batches_delivered,
            "blocks_mined": self.blocks_mined,
            "reorgs": self.reorgs,
            "syncs": self.syncs,
            "snap_syncs": self.snap_syncs,
            "snap_skipped_blocks": self.snap_skipped_blocks,
            "snap_executed_blocks": self.snap_executed_blocks,
        }


class P2PNetwork:
    """Fully connected gossip network of :class:`Node` objects."""

    def __init__(
        self,
        simulator: Simulator,
        pow_engine: ProofOfWork,
        latency: Optional[LatencyModel] = None,
        rng: Optional[np.random.Generator] = None,
        drop_rate: float = 0.0,
        batch_window: float = 0.01,
        drop_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_window < 0:
            raise NetworkError(f"batch_window must be >= 0, got {batch_window}")
        self.sim = simulator
        self.pow = pow_engine
        self.latency = latency if latency is not None else LatencyModel()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # Drop decisions draw from their own stream: sharing ``rng`` with
        # the latency model would let a drop_rate change perturb every
        # latency draw and break A/B determinism across fault intensities.
        self.drop_rng = drop_rng if drop_rng is not None else np.random.default_rng(0)
        self.drop_rate = float(drop_rate)
        self.batch_window = float(batch_window)
        self._miners: dict[str, _MinerState] = {}
        self._outboxes: dict[str, _Outbox] = {}
        self._partitioned: set[frozenset[str]] = set()
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_node(self, node: Node, hashrate: float = 1000.0) -> None:
        """Register a node; equal hashrates model the paper's equal VMs."""
        if node.address in self._miners:
            raise NetworkError(f"node {node.address} already registered")
        self._miners[node.address] = _MinerState(node=node, hashrate=hashrate)

    def node(self, address: str) -> Node:
        """Lookup a registered node."""
        try:
            return self._miners[address].node
        except KeyError:
            raise NetworkError(f"unknown node {address}") from None

    def nodes(self) -> list[Node]:
        """All registered nodes, address-sorted for determinism."""
        return [self._miners[addr].node for addr in sorted(self._miners)]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def partition(self, addr_a: str, addr_b: str) -> None:
        """Cut the link between two nodes (both directions)."""
        self._partitioned.add(frozenset((addr_a, addr_b)))

    def heal(self, addr_a: str, addr_b: str) -> None:
        """Restore a previously cut link."""
        self._partitioned.discard(frozenset((addr_a, addr_b)))

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitioned.clear()

    def _link_up(self, src: str, dst: str) -> bool:
        return frozenset((src, dst)) not in self._partitioned

    def _should_drop(self) -> bool:
        return self.drop_rate > 0 and float(self.drop_rng.random()) < self.drop_rate

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------

    def broadcast_transaction(self, origin: str, tx: Transaction) -> bool:
        """Submit locally then gossip to every peer with link latency.

        Returns ``False`` when the origin node's mempool rejected the
        transaction (nothing is gossiped), ``True`` otherwise — the ledger
        gateway turns a rejection into a typed error instead of silence.
        """
        origin_node = self.node(origin)
        try:
            origin_node.submit_transaction(tx)
        except MempoolError:
            return False
        self.stats.txs_broadcast += 1
        for address in sorted(self._miners):
            if address == origin:
                continue
            self._send(origin, address, "tx", tx)
        return True

    def broadcast_block(self, origin: str, block: Block) -> None:
        """Gossip a newly sealed block."""
        self.stats.blocks_broadcast += 1
        for address in sorted(self._miners):
            if address == origin:
                continue
            self._send(origin, address, "block", block)

    def _send(self, src: str, dst: str, kind: str, payload: object) -> None:
        """Queue one message for ``dst``; delivery rides a batched flush.

        Link and drop faults are evaluated per message at send time (as
        before).  The message keeps its own sampled arrival time; messages
        bound for the same destination whose arrivals fall inside the open
        ``batch_window`` share one simulator event instead of one each.
        A message is never delivered before its sampled arrival.
        """
        if not self._link_up(src, dst):
            self.stats.messages_dropped += 1
            return
        if self._should_drop():
            self.stats.messages_dropped += 1
            return
        delay = self.latency.sample(self.rng)
        arrival = self.sim.now + delay
        outbox = self._outboxes.setdefault(dst, _Outbox(pending=[]))
        outbox.pending.append((arrival, outbox.seq, kind, payload))
        outbox.seq += 1
        if outbox.event is None:
            self._schedule_flush(dst, arrival)
        elif arrival + self.batch_window < outbox.due:
            # This message beats the scheduled flush (smaller sampled
            # latency): pull the flush forward so no message ever waits
            # more than batch_window past its own arrival.
            outbox.event.cancel()
            self._schedule_flush(dst, arrival)

    def _schedule_flush(self, dst: str, earliest_arrival: float) -> None:
        outbox = self._outboxes[dst]
        outbox.due = earliest_arrival + self.batch_window
        outbox.event = self.sim.schedule_at(
            outbox.due, lambda: self._flush(dst), label=f"gossip->{dst[:8]}"
        )

    def _flush(self, dst: str) -> None:
        """Deliver every queued message due by now, in arrival order."""
        outbox = self._outboxes[dst]
        outbox.event = None
        outbox.due = float("inf")
        now = self.sim.now
        ready = sorted(
            (message for message in outbox.pending if message[0] <= now),
            key=lambda message: (message[0], message[1]),
        )
        outbox.pending = [message for message in outbox.pending if message[0] > now]
        if ready:
            self.stats.batches_delivered += 1
        for _arrival, _seq, kind, payload in ready:
            self._deliver(dst, kind, payload)
        if outbox.pending:
            self._schedule_flush(dst, min(message[0] for message in outbox.pending))

    def _deliver(self, dst: str, kind: str, payload: object) -> None:
        self.stats.messages_delivered += 1
        node = self.node(dst)
        if kind == "tx":
            try:
                node.submit_transaction(payload)  # type: ignore[arg-type]
            except MempoolError:
                pass
        elif kind == "block":
            block: Block = payload  # type: ignore[assignment]
            parent_known = block.header.parent_hash in node.store
            try:
                reorg = node.import_block(block)
            except InvalidBlockError:
                return
            if not parent_known and block.block_hash not in node.store:
                # Orphan parked: the node missed ancestors (e.g. it was
                # partitioned).  Request a chain sync from whoever can
                # serve the missing range — real clients do the same with
                # GetBlockHeaders/GetBlockBodies.
                self._schedule_sync(dst, block)
            if reorg is not None and reorg.rolled_back:
                self.stats.reorgs += 1
            # A head change invalidates this node's in-flight mining job.
            if reorg is not None:
                self._restart_miner(dst)

    def _snapshot_pivot(
        self, provider_node: Node, dst_node: Node, lineage: list[Block]
    ) -> Optional[int]:
        """Index of the best snapshot block in an ancestor-first lineage.

        Snapshot sync only applies to a pure fast-forward — the lineage
        must extend ``dst``'s current head directly (the shape a peer
        rejoining after downtime sees).  Divergent histories take the
        block-by-block replay path, which handles reorgs.
        """
        cold = provider_node.config.cold_store
        if cold is None or not lineage:
            return None
        if lineage[0].header.parent_hash != dst_node.store.head_hash:
            return None
        for index in range(len(lineage) - 1, -1, -1):
            if snapshot_key(lineage[index].block_hash) in cold:
                return index
        return None

    def _schedule_sync(self, dst: str, orphan: Block) -> None:
        """Ship the canonical ancestry of ``orphan`` to ``dst`` from any
        reachable peer that has it, with one link latency for the batch.

        When the provider has a cold snapshot inside the missing range and
        the range fast-forwards ``dst``'s head, the batch ships as
        *snapshot + tail*: ``dst`` adopts the root-verified checkpoint and
        executes only the blocks above it (:meth:`Node.sync_from`) instead
        of replaying the whole gap."""
        provider = None
        for address in sorted(self._miners):
            if address == dst or not self._link_up(address, dst):
                continue
            if orphan.header.parent_hash in self._miners[address].node.store:
                provider = address
                break
        if provider is None:
            return
        provider_node = self.node(provider)
        missing: list[Block] = []
        cursor = orphan.header.parent_hash
        dst_node = self.node(dst)
        while cursor not in dst_node.store and cursor in provider_node.store:
            block = provider_node.store.get(cursor)
            missing.append(block)
            if block.number == 0:
                break
            cursor = block.header.parent_hash
        if not missing:
            return
        self.stats.syncs += 1
        delay = self.latency.sample(self.rng)
        lineage = list(reversed(missing))  # ancestor-first
        pivot_index = self._snapshot_pivot(provider_node, dst_node, lineage)

        def deliver_batch() -> None:
            self.stats.messages_delivered += 1
            if pivot_index is not None:
                pivot = lineage[pivot_index]
                try:
                    payload = provider_node.config.cold_store.get(
                        snapshot_key(pivot.block_hash)
                    )
                    executed = dst_node.sync_from(
                        payload,
                        lineage[: pivot_index + 1],
                        lineage[pivot_index + 1 :],
                    )
                except ChainError:
                    pass  # sync_from commits nothing on failure: replay below
                else:
                    self.stats.snap_syncs += 1
                    self.stats.snap_skipped_blocks += pivot_index + 1
                    self.stats.snap_executed_blocks += executed
                    self._restart_miner(dst)
                    return
            for block in lineage:
                try:
                    reorg = dst_node.import_block(block)
                except InvalidBlockError:
                    return
                if reorg is not None and reorg.rolled_back:
                    self.stats.reorgs += 1
            self._restart_miner(dst)

        self.sim.schedule_in(delay, deliver_batch, label=f"sync->{dst[:8]}")

    # ------------------------------------------------------------------
    # Mining loop
    # ------------------------------------------------------------------

    def start_mining(self, addresses: Optional[list[str]] = None) -> None:
        """Schedule the first mining job for the given (or all) nodes."""
        targets = addresses if addresses is not None else sorted(self._miners)
        for address in targets:
            self._miners[address].enabled = True
            self._schedule_mining_job(address)

    def stop_mining(self, addresses: Optional[list[str]] = None) -> None:
        """Cancel outstanding jobs and stop rescheduling."""
        targets = addresses if addresses is not None else sorted(self._miners)
        for address in targets:
            miner = self._miners[address]
            miner.enabled = False
            if miner.current_job is not None:
                miner.current_job.cancel()
                miner.current_job = None

    def _restart_miner(self, address: str) -> None:
        miner = self._miners[address]
        if not miner.enabled:
            return
        if miner.current_job is not None:
            miner.current_job.cancel()
        self._schedule_mining_job(address)

    def _schedule_mining_job(self, address: str) -> None:
        miner = self._miners[address]
        parent = miner.node.head
        interval = max(self.sim.now - parent.header.timestamp, 0.0)
        difficulty = self.pow.next_difficulty(parent.header.difficulty, interval)
        duration = self.pow.sample_mining_time(difficulty, miner.hashrate)
        head_at_schedule = parent.block_hash

        def on_found() -> None:
            miner.current_job = None
            if not miner.enabled:
                return
            # Stale job: head changed while "hashing".
            if miner.node.head.block_hash != head_at_schedule:
                self._schedule_mining_job(address)
                return
            block = miner.node.build_block_candidate(self.sim.now, difficulty=difficulty)
            reorg = miner.node.seal_and_import(block, nonce=self.pow.sample_nonce())
            self.stats.blocks_mined += 1
            if reorg is not None and reorg.rolled_back:
                self.stats.reorgs += 1
            self.broadcast_block(address, block)
            self._schedule_mining_job(address)

        miner.current_job = self.sim.schedule_in(duration, on_found, label=f"mine@{address[:8]}")

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------

    def run_until_height(self, height: int, max_time: float = 1e7) -> float:
        """Advance simulation until every node's head reaches ``height``.

        Returns the simulated time when the condition held.  Raises
        :class:`NetworkError` if the deadline passes first.
        """
        while self.sim.now < max_time:
            if all(node.height >= height for node in self.nodes()):
                return self.sim.now
            if not self.sim.step():
                break
        if all(node.height >= height for node in self.nodes()):
            return self.sim.now
        raise NetworkError(
            f"height {height} not reached by t={self.sim.now:.1f}"
        )

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` simulated seconds."""
        self.sim.run(until=self.sim.now + duration)

    def sync_check(self) -> bool:
        """True iff every node agrees on the head hash."""
        heads = {node.head.block_hash for node in self.nodes()}
        return len(heads) == 1
