"""Block tree with total-difficulty fork choice.

Stores every valid block (including uncles/side branches), tracks cumulative
difficulty per tip, and answers "what is the canonical head?" — heaviest
chain wins, ties broken by earlier arrival (first-seen rule, as in Geth).
Reorg detection reports the common ancestor plus the blocks rolled back and
applied, so the node can rebuild its executed state.

The store can optionally *spill*: given a :class:`~repro.chain.scale.ColdStore`
and a hot window, the node demotes old canonical blocks out of the hot map
into the cold store, keeping the resident set O(hot window) instead of
O(chain length).  Spilling is transparent to readers — ``get``,
``canonical_chain``, and ``__contains__`` read through to cold storage —
while fork choice and height bookkeeping run entirely on two per-hash
scalar indices (``number`` and ``parent hash``), so reorgs and pruning
never decode a cold block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.chain.block import Block, GENESIS_PARENT
from repro.chain.scale.coldstore import ColdStore, ColdStoreError
from repro.errors import InvalidBlockError, UnknownBlockError


class HeadMoves:
    """Which of the nodes sharing it have moved a canonical head.

    One record per run (``DecentralizedFL`` makes it beside the
    :class:`~repro.chain.gateway.ReadMemo` and the
    :class:`~repro.chain.scale.BlockExecutionMemo`), handed to every node's
    :class:`ChainStore`, which reports its owner wherever its head changes:
    a block import that extends the chain or reorgs it, a fork-choice
    switch undone after a failed execution, and each block a snapshot sync
    fast-forwards through.  Head state is a function of the head, so a
    reader that sees the same ``count`` twice knows that no node's
    read-only contract state changed in between, and one that drains it
    (:meth:`drain`) learns *which* nodes' state can have changed since its
    last drain: the per-peer wake set of a waiting driver.  The set is
    unordered; a reader walks it in an order of its own (the driver's is
    the order its wait already reads peers in), never in hash order.
    """

    def __init__(self) -> None:
        self.count = 0
        self._moved: set = set()

    def moved(self, node: Hashable) -> None:
        """Record that ``node``'s canonical head changed."""
        self.count += 1
        self._moved.add(node)

    def drain(self) -> set:
        """The nodes whose head moved since the last drain; forgets them.
        One reader drains at a time (the driver's current wait)."""
        moved, self._moved = self._moved, set()
        return moved


@dataclass
class ReorgInfo:
    """Result of a head switch."""

    old_head: str
    new_head: str
    common_ancestor: str
    rolled_back: list[str]   # block hashes leaving the canonical chain, tip first
    applied: list[str]       # block hashes joining the canonical chain, ancestor-side first

    @property
    def depth(self) -> int:
        """How many canonical blocks were undone."""
        return len(self.rolled_back)


class ChainStore:
    """Append-only block DAG plus canonical-head bookkeeping."""

    def __init__(
        self,
        genesis: Block,
        cold: Optional[ColdStore] = None,
        hot_window: Optional[int] = None,
        head_moves: Optional[HeadMoves] = None,
        owner: Hashable = None,
    ) -> None:
        if genesis.header.parent_hash != GENESIS_PARENT or genesis.number != 0:
            raise InvalidBlockError("genesis must have number 0 and null parent")
        if hot_window is not None and hot_window < 1:
            raise ValueError("hot_window must be >= 1")
        genesis_hash = genesis.block_hash
        self._blocks: dict[str, Block] = {genesis_hash: genesis}
        self._total_difficulty: dict[str, int] = {genesis_hash: genesis.header.difficulty}
        self._arrival: dict[str, int] = {genesis_hash: 0}
        self._arrival_counter = 0
        # height -> canonical block hash, maintained on every head switch,
        # so height lookups (and the node's log range queries) are O(1).
        self._canonical_by_number: dict[int, str] = {0: genesis_hash}
        # Per-hash scalar indices covering hot AND spilled blocks: fork
        # choice, reorg paths, and pruning walk these, never block bodies.
        self._numbers: dict[str, int] = {genesis_hash: 0}
        self._parents: dict[str, str] = {genesis_hash: GENESIS_PARENT}
        self._spilled: set[str] = set()
        self.cold = cold
        self.hot_window = hot_window
        self.genesis_hash = genesis_hash
        self.head_hash = genesis_hash
        self.head_moves = head_moves
        self.owner = owner  # what head_moves records this store's moves as

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._numbers

    def __len__(self) -> int:
        return len(self._numbers)

    def hot_count(self) -> int:
        """Blocks currently resident in the hot map."""
        return len(self._blocks)

    def spilled_count(self) -> int:
        """Blocks demoted to cold storage."""
        return len(self._spilled)

    def get(self, block_hash: str) -> Block:
        """Fetch a block (reviving it from cold storage if spilled) or
        raise :class:`UnknownBlockError`."""
        block = self._blocks.get(block_hash)
        if block is not None:
            return block
        if block_hash in self._spilled:
            return self._revive(block_hash)
        raise UnknownBlockError(block_hash)

    def _revive(self, block_hash: str) -> Block:
        """Read a spilled block back, held to its content address: the
        header must hash to the key it was stored under and commit to the
        transactions that came back with it.  The cold store keeps the
        checked block, so the check runs once per segment read."""

        def checked(payload: dict) -> Block:
            try:
                block = Block.from_dict(payload)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ColdStoreError(f"cold block {block_hash[:10]} is malformed: {exc}") from exc
            if block.block_hash != block_hash or not block.body_matches_header():
                raise ColdStoreError(
                    f"cold block {block_hash[:10]} does not match its content address"
                )
            return block

        return self.cold.get(block_hash, revive=checked)

    def number_of(self, block_hash: str) -> int:
        """Height of a block, hot or spilled, without decoding it."""
        try:
            return self._numbers[block_hash]
        except KeyError:
            raise UnknownBlockError(block_hash) from None

    def parent_of(self, block_hash: str) -> str:
        """Parent hash of a block, hot or spilled, without decoding it."""
        try:
            return self._parents[block_hash]
        except KeyError:
            raise UnknownBlockError(block_hash) from None

    def canonical_hash(self, number: int) -> Optional[str]:
        """Canonical block hash at ``number`` (None outside the chain)."""
        return self._canonical_by_number.get(number)

    @property
    def head(self) -> Block:
        """Current canonical head block (never spilled)."""
        return self._blocks[self.head_hash]

    @property
    def height(self) -> int:
        """Height of the canonical head."""
        return self.head.number

    def total_difficulty(self, block_hash: str) -> int:
        """Cumulative difficulty from genesis to ``block_hash``."""
        try:
            return self._total_difficulty[block_hash]
        except KeyError:
            raise UnknownBlockError(block_hash) from None

    def canonical_chain(self) -> list[Block]:
        """Genesis-to-head block list (revives spilled blocks in passing,
        through the cold store's bounded decode cache)."""
        chain: list[Block] = []
        cursor: Optional[str] = self.head_hash
        while cursor is not None:
            block = self.get(cursor)
            chain.append(block)
            cursor = None if block.number == 0 else block.header.parent_hash
        chain.reverse()
        return chain

    def is_canonical(self, block_hash: str) -> bool:
        """True iff the block lies on the canonical chain."""
        number = self.number_of(block_hash)
        return self._canonical_by_number.get(number) == block_hash

    # ------------------------------------------------------------------
    # Insertion and fork choice
    # ------------------------------------------------------------------

    def add(self, block: Block) -> Optional[ReorgInfo]:
        """Insert a block whose parent is known.

        Returns a :class:`ReorgInfo` when the canonical head changed (even
        for the trivial extend-head case, where ``rolled_back`` is empty),
        or ``None`` when the block landed on a losing side branch.
        """
        block_hash = block.block_hash
        if block_hash in self._numbers:
            return None
        parent_hash = block.header.parent_hash
        if parent_hash not in self._numbers:
            raise UnknownBlockError(f"parent {parent_hash} of block {block_hash}")
        parent_number = self._numbers[parent_hash]
        if block.number != parent_number + 1:
            raise InvalidBlockError(
                f"block number {block.number} != parent number {parent_number} + 1"
            )
        self._blocks[block_hash] = block
        self._numbers[block_hash] = block.number
        self._parents[block_hash] = parent_hash
        self._arrival_counter += 1
        self._arrival[block_hash] = self._arrival_counter
        self._total_difficulty[block_hash] = (
            self._total_difficulty[parent_hash] + block.header.difficulty
        )

        # First-seen tie-break: strictly greater total difficulty wins.
        if self._total_difficulty[block_hash] > self._total_difficulty[self.head_hash]:
            return self._switch_head(block_hash)
        return None

    def demote(self, block_hash: str) -> bool:
        """Move one block from the hot map into the cold store.

        Only non-head blocks can be demoted; the scalar indices keep
        answering number/parent/fork-choice queries, and :meth:`get`
        revives the body on demand.  Returns ``True`` if the block was
        resident and is now cold.
        """
        if self.cold is None:
            raise ValueError("demote() requires a cold store")
        if block_hash == self.head_hash:
            raise ValueError("cannot demote the canonical head")
        block = self._blocks.get(block_hash)
        if block is None:
            return False
        self.cold.put(block_hash, block.to_dict)  # encoded only if no node spilled it yet
        del self._blocks[block_hash]
        self._spilled.add(block_hash)
        return True

    def _switch_head(self, new_head: str) -> ReorgInfo:
        old_head = self.head_hash
        ancestor = self._common_ancestor(old_head, new_head)
        rolled_back = self._path_down(old_head, ancestor)
        applied = list(reversed(self._path_down(new_head, ancestor)))
        for block_hash in rolled_back:
            self._canonical_by_number.pop(self._numbers[block_hash], None)
        for block_hash in applied:
            self._canonical_by_number[self._numbers[block_hash]] = block_hash
        self._move_head(new_head)
        return ReorgInfo(
            old_head=old_head,
            new_head=new_head,
            common_ancestor=ancestor,
            rolled_back=rolled_back,
            applied=applied,
        )

    def revert_head(self, reorg: ReorgInfo) -> None:
        """Undo a head switch whose blocks failed post-fork-choice checks.

        The node calls this when an ``applied`` block's state root does not
        match execution: the blocks stay in the store (they are valid as
        data), but the canonical head and height index return to the old
        branch.  A later, heavier descendant re-enters fork choice and gets
        re-checked then.
        """
        for block_hash in reorg.applied:
            self._canonical_by_number.pop(self._numbers[block_hash], None)
        for block_hash in reorg.rolled_back:
            self._canonical_by_number[self._numbers[block_hash]] = block_hash
        self._move_head(reorg.old_head)

    def _move_head(self, head: str) -> None:
        """The one place the canonical head changes."""
        self.head_hash = head
        if self.head_moves is not None:
            self.head_moves.moved(self.owner)

    def _path_down(self, tip: str, ancestor: str) -> list[str]:
        """Hashes from ``tip`` down to (excluding) ``ancestor``."""
        path = []
        cursor = tip
        while cursor != ancestor:
            path.append(cursor)
            cursor = self._parents[cursor]
        return path

    def _common_ancestor(self, a: str, b: str) -> str:
        while self._numbers[a] > self._numbers[b]:
            a = self._parents[a]
        while self._numbers[b] > self._numbers[a]:
            b = self._parents[b]
        while a != b:
            a = self._parents[a]
            b = self._parents[b]
        return a
