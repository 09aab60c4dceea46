"""Signed transactions and execution receipts.

A transaction is either a value transfer, a contract deployment (``to`` is
``None``), or a contract call (``to`` is a contract address, ``method`` and
``args`` describe the invocation).  The FL peers use contract calls to
submit model commitments and read aggregation state — exactly the web3
interaction pattern of the paper's NodeJS pipeline.

Validation is one-shot: the signing payload, digest, transaction hash, and
signature-verification verdict are all memoized on the instance, so the
three verification sites on a transaction's lifetime (mempool admission,
block validation, execution) pay for one encode and one crypto check total.
:data:`VALIDATION_STATS` counts the real work for the benchmarks.

Tamper contract
---------------
``args`` and ``public_bundle`` are sealed at assignment: the transaction
keeps a private, recursively read-only copy
(:func:`~repro.utils.serialization.freeze` — mappings read through a
``MappingProxyType``, lists become tuples), and a value ``freeze`` cannot
seal is a :class:`~repro.errors.SerializationError` at the assignment.
Every other signed field is an immutable value (``Signature`` is frozen,
``data`` is bytes), so after signing:

* assigning any signed field drops the memo and ``verify_signature()``
  turns false;
* editing ``args`` / ``public_bundle`` or anything nested in them raises
  ``TypeError`` at the edit (the mutating methods — ``update``,
  ``append`` — do not exist) and leaves the transaction verifying;
* editing the dict the transaction was built from (the constructor
  argument, a decoded ``from_dict`` payload, the signer's bundle) changes
  nothing — it used to change the transaction, silently when unsigned.

With no reachable mutable alias the memo needs no re-validation on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.chain.crypto import Address, KeyPair, Signature, recover_check
from repro.errors import InvalidSignatureError
from repro.utils.hashing import keccak_like, sha256_bytes
from repro.utils.serialization import canonical_dumps, freeze


@dataclass
class ValidationStats:
    """Counters of actual (non-memoized) transaction validation work."""

    payload_encodes: int = 0        # full signing-payload serializations
    signatures_verified: int = 0    # crypto verifications actually run
    signature_cache_hits: int = 0   # verifications answered from the cache

    def reset(self) -> None:
        """Zero the counters (tests/benchmarks call this between phases)."""
        self.payload_encodes = 0
        self.signatures_verified = 0
        self.signature_cache_hits = 0

    def as_dict(self) -> dict:
        return {
            "payload_encodes": self.payload_encodes,
            "signatures_verified": self.signatures_verified,
            "signature_cache_hits": self.signature_cache_hits,
        }


#: Process-wide validation counters; the block-execution benchmark pins
#: these to one signature verification per transaction lifetime.
VALIDATION_STATS = ValidationStats()

#: Assigning any of these fields invalidates the memoized payload/digest/
#: hash/verdict (``signature``/``public_bundle`` feed tx_hash and verify).
_CACHE_FIELDS = frozenset(
    {
        "sender",
        "to",
        "nonce",
        "value",
        "gas_limit",
        "gas_price",
        "method",
        "args",
        "data",
        "signature",
        "public_bundle",
    }
)

#: The two container fields; sealed at assignment (see "Tamper contract").
_SEALED_FIELDS = frozenset({"args", "public_bundle"})


@dataclass
class Transaction:
    """An Ethereum-style transaction.

    Attributes
    ----------
    sender:
        Address of the originating account.
    to:
        Destination address, or ``None`` for contract creation.
    nonce:
        Sender's transaction count; enforces ordering and replay protection.
    value:
        Wei-like units transferred to ``to``.
    gas_limit / gas_price:
        Standard Ethereum fee fields.
    method / args:
        For contract calls: the method name and canonical-serializable args
        (held sealed: see the module docstring's tamper contract).
    data:
        Raw payload bytes (used for intrinsic-gas sizing; carries the model
        weight commitment for FL submissions).
    """

    sender: Address
    to: Optional[Address]
    nonce: int
    value: int = 0
    gas_limit: int = 10_000_000
    gas_price: int = 1
    method: str = ""
    args: Mapping[str, Any] = field(default_factory=dict)
    data: bytes = b""
    signature: Optional[Signature] = None
    public_bundle: Optional[Mapping[str, Any]] = None

    # ------------------------------------------------------------------
    # Identity and signing (memoized)
    # ------------------------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _CACHE_FIELDS:
            self.__dict__.pop("_memo", None)
            if name in _SEALED_FIELDS:
                value = freeze(value)
        object.__setattr__(self, name, value)

    def _cache(self) -> dict:
        """Memoized payload/digest; only field assignment drops it."""
        memo = self.__dict__.get("_memo")
        if memo is None:
            payload = canonical_dumps(
                {
                    "sender": self.sender,
                    "to": self.to,
                    "nonce": self.nonce,
                    "value": self.value,
                    "gas_limit": self.gas_limit,
                    "gas_price": self.gas_price,
                    "method": self.method,
                    "args": self.args,
                    "data": self.data,
                }
            )
            VALIDATION_STATS.payload_encodes += 1
            memo = {"payload": payload, "digest": sha256_bytes(payload)}
            object.__setattr__(self, "_memo", memo)
        return memo

    def signing_payload(self) -> bytes:
        """Canonical bytes covered by the signature (everything but it)."""
        return self._cache()["payload"]

    def digest(self) -> bytes:
        """32-byte digest of the signing payload."""
        return self._cache()["digest"]

    @property
    def tx_hash(self) -> str:
        """Transaction hash (includes the signature, like Ethereum)."""
        memo = self._cache()
        cached = memo.get("tx_hash")
        if cached is None:
            sig = self.signature.to_dict() if self.signature else None
            cached = keccak_like(memo["payload"] + canonical_dumps({"sig": sig}))
            memo["tx_hash"] = cached
        return cached

    def sign_with(self, keypair: KeyPair) -> "Transaction":
        """Sign in place with ``keypair`` and return ``self``.

        Raises :class:`InvalidSignatureError` if the keypair's address does
        not match the declared sender — catching wiring bugs early.
        """
        if keypair.address != self.sender:
            raise InvalidSignatureError(
                f"keypair address {keypair.address} != tx sender {self.sender}"
            )
        self.signature = keypair.sign(self.digest())
        self.public_bundle = keypair.public_bundle
        return self

    def verify_signature(self) -> bool:
        """True iff the signature verifies and recovers the declared sender.

        The crypto check runs once per (payload, signature) lifetime; every
        later call — block validation, execution, cross-node re-validation
        of a gossiped instance — is a cache hit.
        """
        if self.signature is None or self.public_bundle is None:
            return False
        memo = self._cache()
        verdict = memo.get("verdict")
        if verdict is None:
            verdict = recover_check(self.public_bundle, memo["digest"], self.signature, self.sender)
            VALIDATION_STATS.signatures_verified += 1
            memo["verdict"] = verdict
        else:
            VALIDATION_STATS.signature_cache_hits += 1
        return verdict

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------

    @property
    def is_create(self) -> bool:
        """True for contract-deployment transactions."""
        return self.to is None

    @property
    def is_call(self) -> bool:
        """True for contract-call transactions."""
        return self.to is not None and bool(self.method)

    def max_cost(self) -> int:
        """Upper bound on sender debit: value + gas_limit * gas_price."""
        return self.value + self.gas_limit * self.gas_price

    def to_dict(self) -> dict:
        """Wire representation (used by gossip and tests)."""
        return {
            "sender": self.sender,
            "to": self.to,
            "nonce": self.nonce,
            "value": self.value,
            "gas_limit": self.gas_limit,
            "gas_price": self.gas_price,
            "method": self.method,
            "args": self.args,
            "data": self.data,
            "signature": self.signature.to_dict() if self.signature else None,
            "public_bundle": self.public_bundle,
        }

    @staticmethod
    def from_dict(payload: dict) -> "Transaction":
        """Inverse of :meth:`to_dict`."""
        sig = payload.get("signature")
        return Transaction(
            sender=payload["sender"],
            to=payload["to"],
            nonce=payload["nonce"],
            value=payload.get("value", 0),
            gas_limit=payload.get("gas_limit", 10_000_000),
            gas_price=payload.get("gas_price", 1),
            method=payload.get("method", ""),
            args=payload.get("args", {}),
            data=payload.get("data", b""),
            signature=Signature.from_dict(sig) if sig else None,
            public_bundle=payload.get("public_bundle"),
        )


@dataclass
class LogEntry:
    """An event emitted by a contract during execution."""

    address: Address
    topic: str
    payload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Canonical-serializable form (cold receipt storage)."""
        return {"address": self.address, "topic": self.topic, "payload": self.payload}

    @staticmethod
    def from_dict(payload: dict) -> "LogEntry":
        """Inverse of :meth:`to_dict`."""
        return LogEntry(
            address=payload["address"],
            topic=payload["topic"],
            payload=payload.get("payload", {}),
        )


@dataclass
class Receipt:
    """Execution result of a transaction included in a block."""

    tx_hash: str
    success: bool
    gas_used: int
    block_hash: str = ""
    block_number: int = -1
    contract_address: Optional[Address] = None
    return_value: Any = None
    revert_reason: str = ""
    logs: list[LogEntry] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Convenience inverse of ``success``."""
        return not self.success

    def to_dict(self) -> dict:
        """Canonical-serializable form (cold receipt storage)."""
        return {
            "tx_hash": self.tx_hash,
            "success": self.success,
            "gas_used": self.gas_used,
            "block_hash": self.block_hash,
            "block_number": self.block_number,
            "contract_address": self.contract_address,
            "return_value": self.return_value,
            "revert_reason": self.revert_reason,
            "logs": [entry.to_dict() for entry in self.logs],
        }

    @staticmethod
    def from_dict(payload: dict) -> "Receipt":
        """Inverse of :meth:`to_dict`."""
        return Receipt(
            tx_hash=payload["tx_hash"],
            success=payload["success"],
            gas_used=payload["gas_used"],
            block_hash=payload.get("block_hash", ""),
            block_number=payload.get("block_number", -1),
            contract_address=payload.get("contract_address"),
            return_value=payload.get("return_value"),
            revert_reason=payload.get("revert_reason", ""),
            logs=[LogEntry.from_dict(entry) for entry in payload.get("logs", [])],
        )
