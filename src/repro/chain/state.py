"""World state: account balances, nonces, and contract storage.

The state is a mapping from address to :class:`AccountState` with two
rollback mechanisms, cheapest first:

* **Journal checkpoints** — every mutation made through the ``WorldState``
  API appends one undo record to an in-order journal.  ``checkpoint()``
  returns a mark, ``rollback(mark)`` undoes everything after it in
  O(touched entries), and ``commit(mark)`` keeps the changes while leaving
  the undo records in place for any *enclosing* checkpoint (checkpoints
  nest arbitrarily).  Transaction-level revert/out-of-gas and block-level
  reorg rollback both ride this journal instead of deep-copying the state.
* **Copy-on-write overlays** — ``overlay()`` returns a child state that
  reads through to its (frozen) base and copies an account locally only
  on first write.  Block-candidate execution and read-only ``eth_call``
  run on overlays, so speculative work never clones untouched accounts.

A detached replica is ``from_account_dicts(state.export_account_dicts())``,
the path snapshot sync installs a checkpoint through.

State roots are incremental: each account's canonical hash is cached and
invalidated when the account is touched, so ``state_root()`` after a block
re-hashes only the accounts that block touched, and the root itself is
cached until the next touch, so ``state_root()`` on a clean state is O(1).
The root is a hash over the sorted ``{address: account_hash}`` map; every
node computes it with the same formula, which is all determinism requires.

Two caveats, enforced by convention exactly as the contract runtime
documents: values reached through ``storage_get``/``sload`` must be treated
as immutable (write a new object through ``storage_set`` instead of
mutating in place), and an overlay's base must not be mutated while the
overlay is alive.  Mutating an :class:`AccountState` obtained from
``account()`` directly is supported for tooling/tests but bypasses the
journal — such edits are invisible to ``rollback`` (the hash cache *is*
invalidated, so roots stay correct).

Module-level :data:`STATE_STATS` counts journal entries written, rollback
work, and account re-hashes so benchmarks can assert rollback cost is
proportional to touched entries and re-rooting is proportional to dirty
accounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.chain.crypto import Address
from repro.errors import ChainError, InsufficientFundsError
from repro.utils.hashing import hash_object


class StateError(ChainError):
    """Invalid journal operation (bad mark, pruned history)."""


@dataclass
class StateStats:
    """Counters of journal and root-cache work (benchmark contract)."""

    journal_entries: int = 0     # undo records written
    rollbacks: int = 0           # rollback() calls
    entries_reverted: int = 0    # undo records replayed by rollbacks
    accounts_hashed: int = 0     # per-account hashes actually computed
    roots_computed: int = 0      # roots actually hashed (not served cached)

    def reset(self) -> None:
        """Zero the counters (tests/benchmarks call this between phases)."""
        self.journal_entries = 0
        self.rollbacks = 0
        self.entries_reverted = 0
        self.accounts_hashed = 0
        self.roots_computed = 0

    def as_dict(self) -> dict:
        return {
            "journal_entries": self.journal_entries,
            "rollbacks": self.rollbacks,
            "entries_reverted": self.entries_reverted,
            "accounts_hashed": self.accounts_hashed,
            "roots_computed": self.roots_computed,
        }


#: Process-wide state-machinery counters.
STATE_STATS = StateStats()

#: Sentinel for "storage slot did not exist" in sstore undo records.
_MISSING = object()


@dataclass
class AccountState:
    """State of one account (externally owned or contract)."""

    balance: int = 0
    nonce: int = 0
    contract_name: Optional[str] = None
    storage: dict[str, Any] = field(default_factory=dict)

    @property
    def is_contract(self) -> bool:
        """True for accounts hosting deployed contract code."""
        return self.contract_name is not None

    def to_dict(self) -> dict:
        return {
            "balance": self.balance,
            "nonce": self.nonce,
            "contract_name": self.contract_name,
            "storage": self.storage,
        }


class WorldState:
    """Mutable world state with journaled checkpoints and CoW overlays."""

    def __init__(self, base: Optional["WorldState"] = None) -> None:
        self._accounts: dict[Address, AccountState] = {}
        self._base = base
        # Undo log.  Marks handed out by checkpoint() are absolute positions
        # (journal_base + local length) so pruning old history does not
        # invalidate the marks that survive it.
        self._journal: list[tuple] = []
        self._journal_base = 0
        # address -> cached hash of the account's canonical form; an absent
        # entry means the account is dirty and will be re-hashed on demand.
        self._hash_cache: dict[Address, str] = {}
        # Root over the current accounts, dropped wherever a hash is.  Only
        # detached states keep one: an overlay cannot see its base change.
        self._root_cache: Optional[str] = None

    # ------------------------------------------------------------------
    # Account access
    # ------------------------------------------------------------------

    def _lookup(self, address: Address) -> Optional[AccountState]:
        """Resolve an account for reading (no creation, no copy)."""
        account = self._accounts.get(address)
        if account is None and self._base is not None:
            return self._base._lookup(address)
        return account

    def _write_account(self, address: Address) -> AccountState:
        """Resolve an account for writing.

        Creates it (journaled) if unknown; for overlays, copies the base
        account into the local map first — balance/nonce/code by value and
        storage as a fresh dict sharing the (immutable-by-convention)
        stored values.
        """
        account = self._accounts.get(address)
        if account is None:
            shadow = self._base._lookup(address) if self._base is not None else None
            if shadow is None:
                account = AccountState()
            else:
                account = AccountState(
                    balance=shadow.balance,
                    nonce=shadow.nonce,
                    contract_name=shadow.contract_name,
                    storage=dict(shadow.storage),
                )
            self._accounts[address] = account
            self._log(("added", address), address)
        return account

    def _log(self, record: tuple, address: Address) -> None:
        """Append one undo record and mark the account dirty."""
        self._journal.append(record)
        STATE_STATS.journal_entries += 1
        self._mark_dirty(address)

    def _mark_dirty(self, address: Address) -> None:
        """Forget the cached hash of ``address`` and the root over it."""
        self._hash_cache.pop(address, None)
        self._root_cache = None

    def account(self, address: Address) -> AccountState:
        """Return (creating lazily) the account at ``address``.

        The caller may mutate the returned object directly; the account is
        marked dirty for root purposes, but direct edits bypass the journal
        (use the typed mutators for anything that must be rollback-able).
        """
        account = self._write_account(address)
        self._mark_dirty(address)
        return account

    def has_account(self, address: Address) -> bool:
        """True if the account exists without creating it."""
        return self._lookup(address) is not None

    def _iter_addresses(self) -> Iterable[Address]:
        if self._base is None:
            return self._accounts.keys()
        merged = set(self._base._iter_addresses())
        merged.update(self._accounts)
        return merged

    def addresses(self) -> list[Address]:
        """Sorted list of known addresses."""
        return sorted(self._iter_addresses())

    def balance_of(self, address: Address) -> int:
        """Balance, zero for unknown accounts (no account creation)."""
        account = self._lookup(address)
        return account.balance if account else 0

    def nonce_of(self, address: Address) -> int:
        """Nonce, zero for unknown accounts."""
        account = self._lookup(address)
        return account.nonce if account else 0

    def is_contract(self, address: Address) -> bool:
        """True iff a contract is deployed at ``address`` (no creation)."""
        account = self._lookup(address)
        return account is not None and account.is_contract

    def contract_name_of(self, address: Address) -> Optional[str]:
        """Deployed contract class name, or ``None`` (no creation)."""
        account = self._lookup(address)
        return account.contract_name if account else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def credit(self, address: Address, amount: int) -> None:
        """Add ``amount`` to the account balance."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        account = self._write_account(address)
        self._log(("balance", address, account.balance), address)
        account.balance += amount

    def debit(self, address: Address, amount: int) -> None:
        """Subtract ``amount``; raises :class:`InsufficientFundsError`."""
        if amount < 0:
            raise ValueError("debit amount must be non-negative")
        account = self._write_account(address)
        if account.balance < amount:
            raise InsufficientFundsError(
                f"{address} balance {account.balance} < debit {amount}"
            )
        self._log(("balance", address, account.balance), address)
        account.balance -= amount

    def transfer(self, src: Address, dst: Address, amount: int) -> None:
        """Atomic balance move from ``src`` to ``dst``."""
        self.debit(src, amount)
        self.credit(dst, amount)

    def bump_nonce(self, address: Address) -> int:
        """Increment and return the account nonce."""
        account = self._write_account(address)
        self._log(("nonce", address, account.nonce), address)
        account.nonce += 1
        return account.nonce

    def set_balance(self, address: Address, balance: int) -> None:
        """Set the balance outright (journaled).

        Used by the parallel executor to apply a speculated transaction's
        final balances; rollback restores the previous value exactly like
        a credit/debit would.
        """
        if balance < 0:
            raise ValueError("balance must be non-negative")
        account = self._write_account(address)
        self._log(("balance", address, account.balance), address)
        account.balance = balance

    def set_nonce(self, address: Address, nonce: int) -> None:
        """Set the nonce outright (journaled)."""
        if nonce < 0:
            raise ValueError("nonce must be non-negative")
        account = self._write_account(address)
        self._log(("nonce", address, account.nonce), address)
        account.nonce = nonce

    def deploy(self, address: Address, contract_name: str, initial_storage: Optional[dict] = None) -> None:
        """Mark an address as hosting a contract with optional seed storage."""
        account = self._write_account(address)
        self._log(("code", address, account.contract_name), address)
        account.contract_name = contract_name
        if initial_storage:
            for key, value in initial_storage.items():
                self.storage_set(address, key, value)

    # ------------------------------------------------------------------
    # Contract storage (journaled; the runtime's only mutation path)
    # ------------------------------------------------------------------

    def storage_get(self, address: Address, key: str, default: Any = None) -> Any:
        """Read a storage slot (no account creation); treat the value as
        immutable — write replacements through :meth:`storage_set`."""
        account = self._lookup(address)
        if account is None:
            return default
        return account.storage.get(key, default)

    def storage_has(self, address: Address, key: str) -> bool:
        """True iff the slot exists (no account creation)."""
        account = self._lookup(address)
        return account is not None and key in account.storage

    def storage_keys(self, address: Address, prefix: str = "") -> list[str]:
        """Sorted storage keys with ``prefix`` (no account creation)."""
        account = self._lookup(address)
        if account is None:
            return []
        return sorted(key for key in account.storage if key.startswith(prefix))

    def storage_set(self, address: Address, key: str, value: Any) -> None:
        """Write a storage slot (journaled)."""
        account = self._write_account(address)
        old = account.storage.get(key, _MISSING)
        self._log(("sstore", address, key, old), address)
        account.storage[key] = value

    def storage_delete(self, address: Address, key: str) -> None:
        """Remove a storage slot if present (journaled)."""
        account = self._write_account(address)
        if key in account.storage:
            self._log(("sstore", address, key, account.storage[key]), address)
            del account.storage[key]

    # ------------------------------------------------------------------
    # Journal checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Open a (nested) checkpoint; returns the mark to commit/rollback."""
        return self._journal_base + len(self._journal)

    def commit(self, mark: int) -> None:
        """Accept everything since ``mark``.

        Undo records stay in the journal so enclosing checkpoints (and the
        node's per-block marks) can still roll past this point; use
        :meth:`flatten_journal` to discard history outright.
        """
        self._check_mark(mark)

    def rollback(self, mark: int) -> None:
        """Undo every change made since ``mark`` in O(touched entries)."""
        self._check_mark(mark)
        STATE_STATS.rollbacks += 1
        keep = mark - self._journal_base
        for record in reversed(self._journal[keep:]):
            self._undo(record)
            STATE_STATS.entries_reverted += 1
        del self._journal[keep:]

    def _check_mark(self, mark: int) -> None:
        if not self._journal_base <= mark <= self.checkpoint():
            raise StateError(
                f"mark {mark} outside live journal "
                f"[{self._journal_base}, {self.checkpoint()}]"
            )

    def can_rollback_to(self, mark: int) -> bool:
        """True iff ``mark`` is still inside the (unpruned) journal."""
        return self._journal_base <= mark <= self.checkpoint()

    def prune_journal(self, mark: int) -> None:
        """Discard undo history below ``mark`` (marks below it die)."""
        self._check_mark(mark)
        del self._journal[: mark - self._journal_base]
        self._journal_base = mark

    def flatten_journal(self) -> None:
        """Discard all undo history; open marks become unreachable."""
        self.prune_journal(self.checkpoint())

    def journal_size(self) -> int:
        """Number of live undo records (diagnostics/benchmarks)."""
        return len(self._journal)

    def diff_since(self, mark: int) -> dict[Address, dict]:
        """Forward diff of everything journaled since ``mark``.

        Maps each touched address to the *final* value of every field a
        record names — ``balance``, ``nonce``, ``contract_name``, and for
        storage ``storage_set`` (key -> value) plus ``storage_del`` (keys)
        — so repeated writes to one key collapse, and a rolled-back span,
        which leaves no records, contributes nothing.  An account that was
        only created maps to an entry with no fields.  Storage values are
        shared with this state, not copied (immutable by convention).
        :meth:`apply_diff` installs the result on a state equal to this
        one as of ``mark``.
        """
        self._check_mark(mark)
        diff: dict[Address, dict] = {}
        for record in self._journal[mark - self._journal_base :]:
            kind, address = record[0], record[1]
            account = self._accounts[address]
            entry = diff.get(address)
            if entry is None:
                entry = diff[address] = {"storage_set": {}, "storage_del": set()}
            if kind == "balance":
                entry["balance"] = account.balance
            elif kind == "nonce":
                entry["nonce"] = account.nonce
            elif kind == "code":
                entry["contract_name"] = account.contract_name
            elif kind == "sstore":
                key = record[2]
                if key in account.storage:
                    entry["storage_set"][key] = account.storage[key]
                else:
                    entry["storage_del"].add(key)
        return diff

    def apply_diff(self, diff: dict[Address, dict]) -> None:
        """Install a :meth:`diff_since` result through the journaled
        setters, in a deterministic (sorted) order — so the span rolls
        back exactly like the execution it stands in for."""
        for address in sorted(diff):
            entry = diff[address]
            self._write_account(address)
            if "balance" in entry:
                self.set_balance(address, entry["balance"])
            if "nonce" in entry:
                self.set_nonce(address, entry["nonce"])
            if "contract_name" in entry:
                self.deploy(address, entry["contract_name"])
            for key in sorted(entry["storage_set"]):
                self.storage_set(address, key, entry["storage_set"][key])
            for key in sorted(entry["storage_del"]):
                self.storage_delete(address, key)

    def _undo(self, record: tuple) -> None:
        kind = record[0]
        address = record[1]
        if kind == "added":
            self._accounts.pop(address, None)
        elif kind == "balance":
            self._accounts[address].balance = record[2]
        elif kind == "nonce":
            self._accounts[address].nonce = record[2]
        elif kind == "code":
            self._accounts[address].contract_name = record[2]
        elif kind == "sstore":
            storage = self._accounts[address].storage
            if record[3] is _MISSING:
                storage.pop(record[2], None)
            else:
                storage[record[2]] = record[3]
        self._mark_dirty(address)

    # ------------------------------------------------------------------
    # Overlays / detached replicas / roots
    # ------------------------------------------------------------------

    def overlay(self) -> "WorldState":
        """Copy-on-write child reading through to this (now frozen) state.

        Do not mutate the base while the overlay is alive; discard the
        overlay to discard its writes.
        """
        return WorldState(base=self)

    def export_account_dicts(self) -> dict[Address, dict]:
        """Canonical-serializable form of every account (overlays flattened).

        This is the world-state payload a snapshot checkpoint persists;
        :meth:`from_account_dicts` is the inverse.  Storage values are
        shared, not copied — encode or discard the result before mutating
        the state.
        """
        merged: dict[Address, AccountState] = {}
        for address in self._iter_addresses():
            account = self._lookup(address)
            if account is not None:
                merged[address] = account
        return {address: merged[address].to_dict() for address in sorted(merged)}

    @classmethod
    def from_account_dicts(cls, accounts: dict[Address, dict]) -> "WorldState":
        """Rebuild a detached state from :meth:`export_account_dicts` output.

        The journal starts empty (snapshot contents never roll back),
        matching how a replayed-from-genesis state begins life.
        """
        state = cls()
        for address in sorted(accounts):
            payload = accounts[address]
            state._accounts[address] = AccountState(
                balance=int(payload["balance"]),
                nonce=int(payload["nonce"]),
                contract_name=payload.get("contract_name"),
                storage=dict(payload.get("storage", {})),
            )
        return state

    def account_hash(self, address: Address) -> str:
        """Cached canonical hash of one account (must exist)."""
        account = self._accounts.get(address)
        if account is None:
            if self._base is not None:
                return self._base.account_hash(address)
            raise StateError(f"no account {address}")
        cached = self._hash_cache.get(address)
        if cached is None:
            cached = hash_object(account.to_dict())
            STATE_STATS.accounts_hashed += 1
            self._hash_cache[address] = cached
        return cached

    def state_root(self) -> str:
        """Deterministic hash over the full state (storage included).

        Combines cached per-account hashes, so only accounts touched since
        the last call are re-hashed; with nothing touched since, a detached
        state answers from its cached root.
        """
        if self._root_cache is not None and self._base is None:
            return self._root_cache
        STATE_STATS.roots_computed += 1
        root = hash_object(
            {address: self.account_hash(address) for address in self._iter_addresses()}
        )
        if self._base is None:
            self._root_cache = root
        return root

    def adopt_hashes(self, hashes: dict[Address, str], root: str) -> None:
        """Install account hashes and a root computed on an identical state.

        Nothing is re-hashed: the caller vouches that ``hashes`` and
        ``root`` were computed from accounts equal to this state's current
        ones (same starting root, same :meth:`apply_diff` — or the same
        genesis allocation).
        """
        self._hash_cache.update(hashes)
        self._root_cache = root

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "overlay" if self._base is not None else "state"
        return f"WorldState({kind}, accounts={len(self._accounts)}, journal={len(self._journal)})"
