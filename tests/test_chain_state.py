"""Tests for world state."""

import pytest

from repro.chain.state import WorldState
from repro.errors import InsufficientFundsError

ALICE = "0x" + "aa" * 20
BOB = "0x" + "bb" * 20


class TestBalances:
    def test_unknown_account_zero_balance(self):
        state = WorldState()
        assert state.balance_of(ALICE) == 0
        assert not state.has_account(ALICE)  # read did not create it

    def test_credit_and_debit(self):
        state = WorldState()
        state.credit(ALICE, 100)
        state.debit(ALICE, 30)
        assert state.balance_of(ALICE) == 70

    def test_overdraft_rejected(self):
        state = WorldState()
        state.credit(ALICE, 10)
        with pytest.raises(InsufficientFundsError):
            state.debit(ALICE, 11)
        assert state.balance_of(ALICE) == 10  # unchanged

    def test_negative_amounts_rejected(self):
        state = WorldState()
        with pytest.raises(ValueError):
            state.credit(ALICE, -1)
        with pytest.raises(ValueError):
            state.debit(ALICE, -1)

    def test_transfer(self):
        state = WorldState()
        state.credit(ALICE, 100)
        state.transfer(ALICE, BOB, 40)
        assert state.balance_of(ALICE) == 60
        assert state.balance_of(BOB) == 40

    def test_transfer_insufficient(self):
        state = WorldState()
        with pytest.raises(InsufficientFundsError):
            state.transfer(ALICE, BOB, 1)


class TestNonces:
    def test_initial_nonce_zero(self):
        assert WorldState().nonce_of(ALICE) == 0

    def test_bump_nonce(self):
        state = WorldState()
        assert state.bump_nonce(ALICE) == 1
        assert state.bump_nonce(ALICE) == 2
        assert state.nonce_of(ALICE) == 2


class TestContracts:
    def test_deploy_marks_contract(self):
        state = WorldState()
        state.deploy(ALICE, "model_store", {"k": 1})
        account = state.account(ALICE)
        assert account.is_contract
        assert account.contract_name == "model_store"
        assert account.storage == {"k": 1}

    def test_plain_account_not_contract(self):
        state = WorldState()
        state.credit(ALICE, 1)
        assert not state.account(ALICE).is_contract


class TestStateRoot:
    def test_equal_states_equal_roots(self):
        a, b = WorldState(), WorldState()
        for state in (a, b):
            state.credit(ALICE, 100)
            state.deploy(BOB, "model_store", {"x": 1})
        assert a.state_root() == b.state_root()

    def test_balance_changes_root(self):
        a, b = WorldState(), WorldState()
        a.credit(ALICE, 100)
        b.credit(ALICE, 101)
        assert a.state_root() != b.state_root()

    def test_storage_changes_root(self):
        a, b = WorldState(), WorldState()
        a.deploy(ALICE, "m", {"x": 1})
        b.deploy(ALICE, "m", {"x": 2})
        assert a.state_root() != b.state_root()

    def test_addresses_sorted(self):
        state = WorldState()
        state.credit(BOB, 1)
        state.credit(ALICE, 1)
        assert state.addresses() == sorted([ALICE, BOB])
