"""Gas-metered smart-contract runtime.

The paper's aggregation coordination lives in a Solidity contract; here
contracts are Python classes registered by name.  A deployed contract gets
an address and a storage dict in the world state; method calls run inside a
:class:`CallContext` that meters gas for storage reads/writes and event
logs, and the executor rolls state back on revert or out-of-gas — the same
semantics Solidity gives.

Contracts must interact with state *only* through the context (``ctx.sload``
/ ``ctx.sstore`` / ``ctx.log`` / ``ctx.call``); this is what makes execution
deterministic and meterable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Type

from repro.chain.crypto import Address
from repro.chain.gas import GasMeter, GasSchedule, DEFAULT_SCHEDULE
from repro.chain.state import WorldState
from repro.chain.transaction import LogEntry, Transaction
from repro.errors import (
    ContractError,
    ContractNotFoundError,
    ContractRevertError,
    MethodNotFoundError,
    OutOfGasError,
)
from repro.utils.hashing import keccak_like
from repro.utils.serialization import canonical_dumps


@dataclass
class CallContext:
    """Execution context handed to a contract method.

    Exposes Solidity-style environment values (``sender``, ``value``,
    ``block_number``, ``timestamp``) plus metered state accessors.
    """

    state: WorldState
    meter: GasMeter
    contract_address: Address
    sender: Address
    value: int = 0
    block_number: int = 0
    timestamp: float = 0.0
    logs: list[LogEntry] = field(default_factory=list)
    runtime: Optional["ContractRuntime"] = None
    depth: int = 0

    # -- storage ---------------------------------------------------------
    #
    # All access goes through the WorldState storage API so every write is
    # journaled (transaction revert and block reorg roll back in O(touched))
    # and reads never materialize accounts.  Values read via sload must be
    # treated as immutable: store a replacement object through sstore.

    def sload(self, key: str, default: Any = None) -> Any:
        """Metered storage read."""
        self.meter.charge_sload()
        return self.state.storage_get(self.contract_address, key, default)

    def sstore(self, key: str, value: Any) -> None:
        """Metered storage write; charges by value size for large payloads."""
        encoded_size = len(canonical_dumps(value))
        fresh = not self.state.storage_has(self.contract_address, key)
        self.meter.charge_sstore(fresh=fresh, value_size=encoded_size)
        self.state.storage_set(self.contract_address, key, value)

    def sdelete(self, key: str) -> None:
        """Remove a storage slot (charged as an update)."""
        if self.state.storage_has(self.contract_address, key):
            self.meter.charge_sstore(fresh=False)
            self.state.storage_delete(self.contract_address, key)

    def skeys(self, prefix: str = "") -> list[str]:
        """Metered scan of storage keys with ``prefix``."""
        self.meter.charge_sload()
        return self.state.storage_keys(self.contract_address, prefix)

    # -- environment ------------------------------------------------------

    def log(self, topic: str, **payload: Any) -> None:
        """Emit an event (shows up in the receipt)."""
        size = len(canonical_dumps(payload))
        self.meter.charge_log(size)
        self.logs.append(LogEntry(address=self.contract_address, topic=topic, payload=payload))

    def require(self, condition: bool, reason: str = "requirement failed") -> None:
        """Solidity's ``require``: revert unless ``condition`` holds."""
        if not condition:
            raise ContractRevertError(reason)

    def revert(self, reason: str = "") -> None:
        """Unconditional revert."""
        raise ContractRevertError(reason)

    def call(self, target: Address, method: str, **args: Any) -> Any:
        """Metered contract-to-contract call sharing this context's meter."""
        if self.runtime is None:
            raise ContractError("context has no runtime for nested calls")
        if self.depth >= 16:
            raise ContractRevertError("max call depth exceeded")
        self.meter.charge(self.meter.schedule.call_base, "call")
        return self.runtime.internal_call(self, target, method, args)


class _ReadContext(CallContext):
    """The top-level frame of a read-only call; notes whether it read
    ``sender``, the one input of a read that is not a function of the
    head state and the arguments."""

    sender_read = False

    @property
    def sender(self) -> Address:
        self.sender_read = True
        return self._sender

    @sender.setter
    def sender(self, value: Address) -> None:
        self._sender = value


class Contract:
    """Base class for contracts.

    Subclasses implement public methods taking ``(self, ctx, **args)``.
    Method names starting with ``_`` are not callable from transactions.
    A subclass may define ``init(ctx, **args)`` run once at deployment.
    """

    #: Registry name; subclasses override.
    NAME = "contract"

    def init(self, ctx: CallContext, **args: Any) -> None:
        """Constructor hook; default does nothing."""

    def public_methods(self) -> list[str]:
        """Callable method names (public API of the contract)."""
        return sorted(
            name
            for name in dir(self)
            if not name.startswith("_")
            and name not in {"init", "public_methods", "NAME"}
            and callable(getattr(self, name))
        )


class ContractRuntime:
    """Deploys and executes registered contract classes."""

    def __init__(self, schedule: GasSchedule = DEFAULT_SCHEDULE) -> None:
        self.schedule = schedule
        self._registry: dict[str, Type[Contract]] = {}
        #: Whether the last :meth:`read_only_call` that returned read its
        #: ``caller``; False while one runs and after one raises.
        self.read_used_caller = False

    # -- registry ---------------------------------------------------------

    def register(self, contract_class: Type[Contract]) -> None:
        """Register a contract class under its ``NAME``."""
        name = contract_class.NAME
        if not name or name == Contract.NAME:
            raise ContractError(f"{contract_class.__name__} must define a unique NAME")
        self._registry[name] = contract_class

    def is_registered(self, name: str) -> bool:
        """True if a contract class with ``name`` is known."""
        return name in self._registry

    def registered_names(self) -> list[str]:
        """Sorted registered contract names."""
        return sorted(self._registry)

    def _instantiate(self, name: str) -> Contract:
        try:
            return self._registry[name]()
        except KeyError:
            raise ContractNotFoundError(f"contract class {name!r} not registered") from None

    # -- deployment --------------------------------------------------------

    @staticmethod
    def contract_address(deployer: Address, nonce: int) -> Address:
        """Deterministic deployment address (Ethereum: H(sender, nonce))."""
        digest = keccak_like(canonical_dumps({"deployer": deployer, "nonce": nonce}))
        return "0x" + digest[-40:]

    def deploy(
        self,
        state: WorldState,
        meter: GasMeter,
        tx: Transaction,
        block_number: int,
        timestamp: float,
    ) -> tuple[Address, list[LogEntry]]:
        """Deploy the contract named in ``tx.args['contract']``.

        Returns the new contract address and constructor logs.  Raises
        :class:`ContractRevertError` / :class:`OutOfGasError` on failure
        (caller rolls back).
        """
        name = tx.args.get("contract")
        if not isinstance(name, str):
            raise ContractRevertError("deployment requires args['contract']")
        instance = self._instantiate(name)
        address = self.contract_address(tx.sender, tx.nonce)
        state.deploy(address, name)
        ctx = CallContext(
            state=state,
            meter=meter,
            contract_address=address,
            sender=tx.sender,
            value=tx.value,
            block_number=block_number,
            timestamp=timestamp,
            runtime=self,
        )
        init_args = {key: value for key, value in tx.args.items() if key != "contract"}
        instance.init(ctx, **init_args)
        return address, ctx.logs

    # -- calls --------------------------------------------------------------

    def _resolve_method(self, instance: Contract, method: str) -> Callable[..., Any]:
        if method.startswith("_") or method in {"init", "public_methods"}:
            raise MethodNotFoundError(f"method {method!r} is not public")
        fn = getattr(instance, method, None)
        if fn is None or not callable(fn):
            raise MethodNotFoundError(f"unknown method {method!r}")
        return fn

    def execute_call(
        self,
        state: WorldState,
        meter: GasMeter,
        tx: Transaction,
        block_number: int,
        timestamp: float,
    ) -> tuple[Any, list[LogEntry]]:
        """Run a top-level contract call transaction.

        ``tx.args`` is sealed (see :mod:`repro.chain.transaction`).  Every
        contract parameter today is a scalar; a future one that takes a
        container receives a tuple / read-only mapping and must copy it
        (``list(...)`` / ``dict(...)``) before ``sstore``: a mapping proxy
        can be neither pickled nor deep-copied, and
        :meth:`WorldState.snapshot` deep-copies accounts.
        """
        name = state.contract_name_of(tx.to)
        if name is None:
            raise ContractNotFoundError(f"no contract at {tx.to}")
        instance = self._instantiate(name)
        ctx = CallContext(
            state=state,
            meter=meter,
            contract_address=tx.to,
            sender=tx.sender,
            value=tx.value,
            block_number=block_number,
            timestamp=timestamp,
            runtime=self,
        )
        fn = self._resolve_method(instance, tx.method)
        result = fn(ctx, **tx.args)
        return result, ctx.logs

    def internal_call(self, parent: CallContext, target: Address, method: str, args: dict) -> Any:
        """Nested call: new context, shared meter, sender = calling contract."""
        name = parent.state.contract_name_of(target)
        if name is None:
            raise ContractNotFoundError(f"no contract at {target}")
        instance = self._instantiate(name)
        ctx = CallContext(
            state=parent.state,
            meter=parent.meter,
            contract_address=target,
            sender=parent.contract_address,
            value=0,
            block_number=parent.block_number,
            timestamp=parent.timestamp,
            runtime=self,
            depth=parent.depth + 1,
        )
        fn = self._resolve_method(instance, method)
        result = fn(ctx, **args)
        parent.logs.extend(ctx.logs)
        return result

    def read_only_call(
        self,
        state: WorldState,
        contract_address: Address,
        method: str,
        caller: Address = "0x" + "00" * 20,
        block_number: int = 0,
        timestamp: float = 0.0,
        gas_limit: int = 10**9,
        **args: Any,
    ) -> Any:
        """web3-style ``eth_call``: execute on a discarded copy-on-write
        overlay, so reads touch nothing and writes never reach ``state``.

        Records in :attr:`read_used_caller` whether the method's own frame
        read ``ctx.sender`` (nested frames see the calling contract as
        their sender, never ``caller``).  Whether a frame reads its sender
        cannot depend on who the sender is, so a read that did not is the
        same value for every caller at the same state.
        """
        self.read_used_caller = False
        scratch = state.overlay()
        meter = GasMeter(gas_limit, self.schedule)
        name = scratch.contract_name_of(contract_address)
        if name is None:
            raise ContractNotFoundError(f"no contract at {contract_address}")
        instance = self._instantiate(name)
        ctx = _ReadContext(
            state=scratch,
            meter=meter,
            contract_address=contract_address,
            sender=caller,
            block_number=block_number,
            timestamp=timestamp,
            runtime=self,
        )
        fn = self._resolve_method(instance, method)
        result = fn(ctx, **args)
        self.read_used_caller = ctx.sender_read
        return result
