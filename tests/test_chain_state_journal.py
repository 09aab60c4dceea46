"""Journaled WorldState: checkpoint/rollback semantics, overlays, pruning.

The hypothesis property drives a journaled state and a mirror that never
uses the journal (at checkpoint it pushes a deep copy of its exported
accounts, at rollback it is rebuilt from them with ``from_account_dicts``)
through identical random op sequences — credits, debits, deployments,
storage writes/deletes, nonce bumps, and nested checkpoint/commit/rollback
— asserting the two remain observably identical after every step,
including ``state_root()`` equality (which also proves the per-account
hash cache invalidates correctly across rollbacks).

The from-scratch root oracle used throughout is :func:`rebuilt_root`: the
root of a detached replica rebuilt from the exported accounts, which holds
no cached hash and no cached root.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.crypto import KeyPair
from repro.chain.node import GenesisSpec, Node
from repro.chain.runtime import ContractRuntime
from repro.chain.state import STATE_STATS, StateError, WorldState
from repro.chain.transaction import Transaction, VALIDATION_STATS
from repro.errors import InsufficientFundsError

ADDRESSES = ["0x" + f"{i:02x}" * 20 for i in range(4)]
KEYS = ["k0", "k1", "slot:a"]


def rebuilt_root(state: WorldState) -> str:
    return WorldState.from_account_dicts(state.export_account_dicts()).state_root()


def _assert_same(journaled: WorldState, mirror: WorldState) -> None:
    assert journaled.addresses() == mirror.addresses()
    for address in journaled.addresses():
        assert journaled.account(address).to_dict() == mirror.account(address).to_dict()
    assert journaled.state_root() == mirror.state_root()


_OPS = st.one_of(
    st.tuples(st.just("credit"), st.sampled_from(ADDRESSES), st.integers(0, 100)),
    st.tuples(st.just("debit"), st.sampled_from(ADDRESSES), st.integers(0, 100)),
    st.tuples(st.just("bump"), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("deploy"), st.sampled_from(ADDRESSES), st.sampled_from(["m", "n"])),
    st.tuples(
        st.just("sstore"),
        st.sampled_from(ADDRESSES),
        st.sampled_from(KEYS),
        st.one_of(st.integers(0, 9), st.lists(st.integers(0, 3), max_size=2)),
    ),
    st.tuples(st.just("sdelete"), st.sampled_from(ADDRESSES), st.sampled_from(KEYS)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("commit")),
)


@given(st.lists(_OPS, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_journal_matches_deep_snapshot_semantics(ops):
    journaled = WorldState()
    mirror = WorldState()
    marks: list[int] = []
    snaps: list[dict] = []
    for op in ops:
        kind = op[0]
        if kind == "checkpoint":
            marks.append(journaled.checkpoint())
            snaps.append(copy.deepcopy(mirror.export_account_dicts()))
        elif kind == "rollback" and marks:
            journaled.rollback(marks.pop())
            mirror = WorldState.from_account_dicts(snaps.pop())
        elif kind == "commit" and marks:
            journaled.commit(marks.pop())
            snaps.pop()
        elif kind == "credit":
            journaled.credit(op[1], op[2])
            mirror.credit(op[1], op[2])
        elif kind == "debit":
            outcomes = []
            for state in (journaled, mirror):
                try:
                    state.debit(op[1], op[2])
                    outcomes.append("ok")
                except InsufficientFundsError:
                    outcomes.append("insufficient")
            assert outcomes[0] == outcomes[1]
        elif kind == "bump":
            assert journaled.bump_nonce(op[1]) == mirror.bump_nonce(op[1])
        elif kind == "deploy":
            journaled.deploy(op[1], op[2], {"seed": 1})
            mirror.deploy(op[1], op[2], {"seed": 1})
        elif kind == "sstore":
            journaled.storage_set(op[1], op[2], op[3])
            mirror.storage_set(op[1], op[2], op[3])
        elif kind == "sdelete":
            journaled.storage_delete(op[1], op[2])
            mirror.storage_delete(op[1], op[2])
        _assert_same(journaled, mirror)


ALICE, BOB = ADDRESSES[0], ADDRESSES[1]


class TestCheckpoints:
    def test_nested_rollback_innermost_first(self):
        state = WorldState()
        state.credit(ALICE, 100)
        outer = state.checkpoint()
        state.credit(ALICE, 10)
        inner = state.checkpoint()
        state.credit(ALICE, 1)
        state.rollback(inner)
        assert state.balance_of(ALICE) == 110
        state.rollback(outer)
        assert state.balance_of(ALICE) == 100

    def test_commit_keeps_enclosing_rollback(self):
        state = WorldState()
        outer = state.checkpoint()
        state.credit(ALICE, 5)
        inner = state.checkpoint()
        state.credit(ALICE, 7)
        state.commit(inner)  # accepted, but outer can still undo it
        assert state.balance_of(ALICE) == 12
        state.rollback(outer)
        assert state.balance_of(ALICE) == 0

    def test_rollback_removes_created_accounts(self):
        state = WorldState()
        mark = state.checkpoint()
        state.credit(ALICE, 1)
        assert state.has_account(ALICE)
        state.rollback(mark)
        assert not state.has_account(ALICE)

    def test_rollback_restores_storage_and_code(self):
        state = WorldState()
        state.deploy(ALICE, "m", {"x": 1})
        mark = state.checkpoint()
        state.storage_set(ALICE, "x", 2)
        state.storage_set(ALICE, "y", 3)
        state.storage_delete(ALICE, "x")
        state.rollback(mark)
        assert state.storage_get(ALICE, "x") == 1
        assert not state.storage_has(ALICE, "y")

    def test_bad_mark_raises(self):
        state = WorldState()
        with pytest.raises(StateError):
            state.rollback(99)

    def test_rollback_cost_is_touched_entries(self):
        state = WorldState()
        for index in range(500):
            state.credit("0x" + f"{index:04x}" * 10, 1)
        STATE_STATS.reset()
        mark = state.checkpoint()
        state.credit(ALICE, 1)
        state.credit(BOB, 1)
        state.rollback(mark)
        # 2 touched (pre-existing) accounts -> 2 balance records, not 500.
        assert STATE_STATS.entries_reverted == 2


class TestPruning:
    def test_pruned_marks_unreachable(self):
        state = WorldState()
        old = state.checkpoint()
        state.credit(ALICE, 1)
        new = state.checkpoint()
        state.prune_journal(new)
        assert not state.can_rollback_to(old)
        assert state.can_rollback_to(new)
        with pytest.raises(StateError):
            state.rollback(old)

    def test_marks_survive_pruning_below_them(self):
        state = WorldState()
        state.credit(ALICE, 1)
        keep = state.checkpoint()
        state.prune_journal(keep)
        state.credit(ALICE, 2)
        state.rollback(keep)
        assert state.balance_of(ALICE) == 1


class TestOverlay:
    def test_reads_pass_through(self):
        base = WorldState()
        base.credit(ALICE, 10)
        base.deploy(BOB, "m", {"k": 1})
        overlay = base.overlay()
        assert overlay.balance_of(ALICE) == 10
        assert overlay.storage_get(BOB, "k") == 1
        assert overlay.is_contract(BOB)
        assert overlay.addresses() == base.addresses()

    def test_writes_never_reach_base(self):
        base = WorldState()
        base.credit(ALICE, 10)
        base.deploy(BOB, "m", {"k": 1})
        overlay = base.overlay()
        overlay.credit(ALICE, 90)
        overlay.storage_set(BOB, "k", 2)
        overlay.storage_delete(BOB, "missing")
        assert overlay.balance_of(ALICE) == 100
        assert overlay.storage_get(BOB, "k") == 2
        assert base.balance_of(ALICE) == 10
        assert base.storage_get(BOB, "k") == 1

    def test_overlay_root_matches_materialized_copy(self):
        base = WorldState()
        base.credit(ALICE, 10)
        base.deploy(BOB, "m", {"k": 1})
        base.state_root()  # warm the base cache; overlay must not corrupt it
        overlay = base.overlay()
        overlay.transfer(ALICE, BOB, 4)
        overlay.storage_set(BOB, "k", 7)
        materialized = WorldState.from_account_dicts(base.export_account_dicts())
        materialized.transfer(ALICE, BOB, 4)
        materialized.storage_set(BOB, "k", 7)
        assert overlay.state_root() == materialized.state_root()
        # Discarding the overlay leaves the base root unchanged.
        assert base.state_root() == rebuilt_root(base)

    def test_overlay_rollback_falls_back_to_base(self):
        base = WorldState()
        base.credit(ALICE, 10)
        overlay = base.overlay()
        mark = overlay.checkpoint()
        overlay.credit(ALICE, 5)
        overlay.rollback(mark)
        assert overlay.balance_of(ALICE) == 10
        assert ALICE not in overlay._accounts  # shadow removed, reads hit base


class TestIncrementalRoot:
    def test_root_equals_fresh_state_root_after_churn(self):
        state = WorldState()
        state.credit(ALICE, 100)
        state.deploy(BOB, "m", {"k": 1})
        state.state_root()
        mark = state.checkpoint()
        state.transfer(ALICE, BOB, 30)
        state.storage_set(BOB, "k", 2)
        state.rollback(mark)
        state.storage_set(BOB, "j", 9)
        fresh = WorldState()
        fresh.credit(ALICE, 100)
        fresh.deploy(BOB, "m", {"k": 1})
        fresh.storage_set(BOB, "j", 9)
        assert state.state_root() == fresh.state_root()

    def test_rerooting_hashes_only_dirty_accounts(self):
        state = WorldState()
        for index in range(50):
            state.credit("0x" + f"{index:04x}" * 10, 1)
        state.state_root()
        STATE_STATS.reset()
        state.credit(ALICE, 1)
        state.state_root()
        assert STATE_STATS.accounts_hashed == 1

    def test_direct_account_mutation_still_dirties_root(self):
        state = WorldState()
        state.deploy(ALICE, "m", {"k": 1})
        before = state.state_root()
        state.account(ALICE).storage["k"] = 2  # bypasses the journal
        assert state.state_root() != before


def _block_execution_cost(padding: int) -> tuple[dict, dict]:
    """Journal, root and signature counters for building and importing
    three blocks of transfers among four senders, on a genesis padded
    with ``padding`` accounts the blocks never touch."""
    senders = [KeyPair.from_seed(f"journal-cost-{index}") for index in range(4)]
    allocations = {kp.address: 10**15 for kp in senders}
    allocations.update({"0x" + f"{index:040x}": 1 for index in range(padding)})
    node = Node(senders[0], GenesisSpec(allocations=allocations), ContractRuntime())
    STATE_STATS.reset()
    VALIDATION_STATS.reset()
    for _ in range(3):
        for index, kp in enumerate(senders):
            tx = Transaction(
                sender=kp.address,
                to=senders[(index + 1) % len(senders)].address,
                nonce=node.next_nonce_for(kp.address),
                value=1,
            ).sign_with(kp)
            node.submit_transaction(tx)
        node.seal_and_import(
            node.build_block_candidate(node.head.header.timestamp + 13.0, difficulty=1), nonce=0
        )
    return STATE_STATS.as_dict(), VALIDATION_STATS.as_dict()


class TestBlockExecutionCost:
    def test_block_build_and_import_cost_is_flat_in_state_size(self):
        # Undo records follow touched entries and re-hashes follow dirty
        # accounts: neither grows with the accounts a block leaves alone.
        small, small_checks = _block_execution_cost(8)
        large, large_checks = _block_execution_cost(512)
        assert large == small and small["journal_entries"] > 0
        assert large_checks == small_checks
        # One signature verification per transaction; candidate execution,
        # block validation and import execution hit the memo.
        assert small_checks["signatures_verified"] == 12
        assert small_checks["signature_cache_hits"] >= 2 * 12


# ---------------------------------------------------------------------------
# Root cache, forward diffs
# ---------------------------------------------------------------------------


def _apply(state: WorldState, op: tuple, marks: list[int]) -> None:
    kind = op[0]
    if kind == "checkpoint":
        marks.append(state.checkpoint())
    elif kind == "rollback" and marks:
        state.rollback(marks.pop())
    elif kind == "commit" and marks:
        state.commit(marks.pop())
    elif kind == "credit":
        state.credit(op[1], op[2])
    elif kind == "debit":
        try:
            state.debit(op[1], op[2])
        except InsufficientFundsError:
            pass
    elif kind == "bump":
        state.bump_nonce(op[1])
    elif kind == "deploy":
        state.deploy(op[1], op[2], {"seed": 1})
    elif kind == "sstore":
        state.storage_set(op[1], op[2], op[3])
    elif kind == "sdelete":
        state.storage_delete(op[1], op[2])
    elif kind == "direct":  # tooling-style edit behind the journal's back
        state.account(op[1]).balance += op[2]


_ROOT_OPS = st.one_of(
    _OPS,
    st.tuples(st.just("direct"), st.sampled_from(ADDRESSES), st.integers(1, 5)),
)


@given(st.lists(_ROOT_OPS, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_cached_root_is_the_from_scratch_root_after_every_mutation(ops):
    state = WorldState()
    marks: list[int] = []
    for op in ops:
        _apply(state, op, marks)
        assert state.state_root() == rebuilt_root(state)
        assert state.state_root() == state.state_root()


@given(st.lists(_OPS, max_size=15), st.lists(_OPS, min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_diff_since_applied_to_the_old_state_gives_the_new_state(before, after):
    state = WorldState()
    marks: list[int] = []
    for op in before:
        _apply(state, op, marks)
    old = WorldState.from_account_dicts(state.export_account_dicts())
    old_root = old.state_root()
    mark = state.checkpoint()
    inner: list[int] = []
    for op in after:
        _apply(state, op, inner)  # nested rollbacks stay above ``mark``
    diff = state.diff_since(mark)
    state.commit(mark)
    installed = old.checkpoint()
    old.apply_diff(diff)
    assert old.addresses() == state.addresses()
    for address in state.addresses():
        assert old.account(address).to_dict() == state.account(address).to_dict()
    assert old.state_root() == rebuilt_root(state)
    # ... and it went in through the journal: one rollback takes it out.
    old.rollback(installed)
    assert old.state_root() == old_root == rebuilt_root(old)


class TestRootCache:
    def test_clean_state_answers_without_hashing(self):
        state = WorldState()
        for index in range(20):
            state.credit("0x" + f"{index:04x}" * 10, 1)
        root = state.state_root()
        STATE_STATS.reset()
        assert state.state_root() == root
        assert (STATE_STATS.roots_computed, STATE_STATS.accounts_hashed) == (0, 0)
        state.credit(ALICE, 1)
        assert state.state_root() != root
        assert (STATE_STATS.roots_computed, STATE_STATS.accounts_hashed) == (1, 1)

    def test_overlay_never_serves_a_stale_base_root(self):
        base = WorldState()
        base.credit(ALICE, 10)
        overlay = base.overlay()
        assert overlay.state_root() == base.state_root()
        overlay.credit(BOB, 1)
        with_bob = overlay.state_root()
        assert with_bob != base.state_root()
        # Against the documented convention the base moves under a live
        # overlay; the overlay keeps no root of its own to go stale.
        base.credit(ALICE, 1)
        assert overlay.state_root() != with_bob
        assert overlay.state_root() == rebuilt_root(overlay)

    def test_adopted_hashes_are_dropped_like_computed_ones(self):
        donor = WorldState()
        donor.credit(ALICE, 5)
        donor.credit(BOB, 6)
        root = donor.state_root()
        hashes = {address: donor.account_hash(address) for address in (ALICE, BOB)}
        state = WorldState()
        state.credit(ALICE, 5)
        state.credit(BOB, 6)
        STATE_STATS.reset()
        state.adopt_hashes(hashes, root)
        assert state.state_root() == root and STATE_STATS.accounts_hashed == 0
        state.credit(BOB, 1)
        changed = state.state_root()
        assert STATE_STATS.accounts_hashed == 1  # only the touched account
        assert changed == rebuilt_root(state) != root



class TestForwardDiff:
    def test_final_values_deletions_and_rolled_back_spans(self):
        state = WorldState()
        state.deploy(ALICE, "m", {"keep": 1, "drop": 2, "rewrite": 3})
        state.credit(BOB, 50)
        mark = state.checkpoint()
        state.storage_set(ALICE, "rewrite", 30)
        state.storage_set(ALICE, "rewrite", 31)  # collapses to the final value
        state.storage_delete(ALICE, "drop")
        state.storage_set(ALICE, "fleeting", 1)
        state.storage_delete(ALICE, "fleeting")  # never existed before: still a delete
        inner = state.checkpoint()
        state.credit(BOB, 999)
        state.rollback(inner)  # leaves no record
        state.bump_nonce(BOB)
        diff = state.diff_since(mark)
        state.commit(mark)
        assert diff == {
            ALICE: {"storage_set": {"rewrite": 31}, "storage_del": {"drop", "fleeting"}},
            BOB: {"storage_set": {}, "storage_del": set(), "nonce": 1},
        }

    def test_diff_of_a_created_only_account_creates_it(self):
        state = WorldState()
        old = WorldState.from_account_dicts(state.export_account_dicts())
        mark = state.checkpoint()
        state.storage_delete(ALICE, "missing")  # creates the account, writes nothing
        diff = state.diff_since(mark)
        state.commit(mark)
        assert diff == {ALICE: {"storage_set": {}, "storage_del": set()}}
        old.apply_diff(diff)
        assert old.has_account(ALICE) and old.state_root() == state.state_root()
