"""Shared exception hierarchy for the ``repro`` library.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch library failures without also swallowing programming errors such as
``TypeError``.  The hierarchy mirrors the package layout: chain errors,
contract errors, neural-network errors, federated-learning errors.
"""

from __future__ import annotations

import dataclasses
import math


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Blockchain substrate
# ---------------------------------------------------------------------------


class ChainError(ReproError):
    """Base class for blockchain-substrate failures."""


class InvalidTransactionError(ChainError):
    """A transaction failed static or stateful validation."""


class InvalidBlockError(ChainError):
    """A block failed validation (header, PoW, or body checks)."""


class InvalidSignatureError(ChainError):
    """A signature did not verify against the claimed sender."""


class UnknownBlockError(ChainError):
    """A referenced block hash is not present in the chain store."""


class InsufficientFundsError(InvalidTransactionError):
    """Sender balance cannot cover value + max gas cost."""


class NonceError(InvalidTransactionError):
    """Transaction nonce does not match the sender account nonce."""


class OutOfGasError(ChainError):
    """Contract execution exceeded the transaction gas limit."""


class ContractError(ChainError):
    """Base class for smart-contract level failures."""


class ContractNotFoundError(ContractError):
    """A call targeted an address with no deployed contract."""


class ContractRevertError(ContractError):
    """A contract explicitly reverted; state changes are rolled back."""

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason or "execution reverted")
        self.reason = reason


class MethodNotFoundError(ContractRevertError):
    """A call named a method the target contract does not expose.

    Subclass of :class:`ContractRevertError` so transaction execution
    semantics (gas charged, nonce bumped, state rolled back) are untouched;
    the distinct type lets the ledger gateway surface it as a typed
    :class:`UnknownMethodError` instead of a generic revert.
    """


class MempoolError(ChainError):
    """Mempool admission failure (duplicate, underpriced, full)."""


class NetworkError(ChainError):
    """Simulated p2p network failure (unknown peer, partitioned link)."""


# ---------------------------------------------------------------------------
# Neural-network substrate
# ---------------------------------------------------------------------------


class NNError(ReproError):
    """Base class for neural-network substrate failures."""


class ShapeError(NNError):
    """An array did not have the expected shape."""


class SerializationError(NNError):
    """Model weights could not be serialized or deserialized."""


class NotBuiltError(NNError):
    """A layer was used before its parameters were initialized."""


# ---------------------------------------------------------------------------
# Data substrate
# ---------------------------------------------------------------------------


class DataError(ReproError):
    """Base class for dataset failures."""


# ---------------------------------------------------------------------------
# Federated learning
# ---------------------------------------------------------------------------


class FLError(ReproError):
    """Base class for federated-learning failures."""


class AggregationError(FLError):
    """Model aggregation failed (no models, mismatched parameters)."""


class SelectionError(FLError):
    """Combination selection failed (no candidate passed the filter)."""


class RoundError(FLError):
    """A federated round could not complete (quorum never reached)."""


class ConfigError(ReproError):
    """An experiment configuration is inconsistent."""


def require_finite(spec: object, error: type[ReproError] = ConfigError) -> None:
    """Raise ``error`` if a float field of dataclass ``spec`` (or a float in
    a tuple field) is NaN or infinite: range checks like ``x <= 0`` pass NaN."""
    for spec_field in dataclasses.fields(spec):
        value = getattr(spec, spec_field.name)
        entries = value if isinstance(value, tuple) else (value,)
        if any(isinstance(entry, float) and not math.isfinite(entry) for entry in entries):
            raise error(f"{type(spec).__name__}.{spec_field.name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# Ledger gateway (the FL-layer <-> chain service boundary)
# ---------------------------------------------------------------------------


class GatewayError(ReproError):
    """Base class for ledger-gateway failures.

    The gateway is the transport-agnostic service API between the FL layer
    and the chain (:mod:`repro.chain.gateway`); every backend maps its
    transport-specific failures onto this hierarchy so callers never have
    to catch raw ``KeyError`` / backend internals.
    """


class UnknownContractError(GatewayError):
    """A gateway call targeted an address with no deployed contract."""


class UnknownMethodError(GatewayError):
    """A gateway call named a method the contract does not expose."""


class CallRevertedError(GatewayError):
    """A read-only gateway call reverted inside the contract."""

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason or "call reverted")
        self.reason = reason


class TransactionRejectedError(GatewayError):
    """A submitted transaction was rejected before entering the ledger."""


class GatewayTimeoutError(GatewayError, RoundError):
    """A gateway wait ran past its deadline.

    Also a :class:`RoundError`: existing round-driver callers that catch
    the pre-gateway timeout type keep working unchanged.
    """


class TransientGatewayError(GatewayError):
    """A gateway operation failed in a way that is safe to retry.

    Raised by fault injection (and, later, by out-of-process transports)
    for momentary transport hiccups: the operation had no effect and an
    identical re-issue may succeed.  :class:`ResilientGateway` retries
    exactly this type plus :class:`GatewayTimeoutError`; everything else
    (rejections, reverts, unknown contract/method) is permanent.
    """


class GatewayUnavailableError(GatewayError):
    """The gateway gave up on an operation or is circuit-broken.

    Surfaced by :class:`~repro.faults.gateway.ResilientGateway` when the
    retry budget is exhausted or the circuit breaker is open, and by
    :class:`~repro.faults.gateway.FaultyGateway` for a crashed peer.  The
    round driver catches exactly this type to drop a peer from the
    current round instead of aborting the run.
    """


class WireProtocolError(GatewayError):
    """A wire frame violated the runtime's framing or codec contract.

    Raised by :mod:`repro.runtime.wire` for malformed frames (bad magic,
    truncated payload, undeclared blob, unknown message type) — a
    programming or version-skew error, never something a retry fixes.
    """


class WorkerCrashedError(GatewayUnavailableError):
    """A worker OS process died or its wire channel closed unexpectedly.

    A failure of the multiprocess runtime, not of a round: the driver
    never drops a peer or records an abort reason for it, with or without
    fault injection — it propagates, and the coordinator terminates the
    rest of the fleet on the way out.  (Recovering a crashed worker is not
    implemented; its subclassing of :class:`GatewayUnavailableError` only
    keeps the wire-error vocabulary stable.)
    """
