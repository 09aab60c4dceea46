"""ChainGateway: the transport-agnostic ledger API of the FL layer.

The FL layer never touches a :class:`~repro.chain.node.Node` directly —
every read, submission, and wait goes through a :class:`ChainGateway`, a
narrow JSON-RPC-flavored service protocol (``call`` / ``batch_call`` /
``submit`` / ``height`` / ``head_hash`` / ``has_contract`` / ``get_logs``
/ ``next_nonce`` / ``view_token`` / ``wait_for``).  That seam is what
lets peers later run out-of-process or against a remote chain without
touching the FL code, and it is where read batching/caching lives.

Two backends ship today:

* :class:`InProcessGateway` — wraps a local ``Node`` (plus the simulated
  p2p network for submissions and the event engine for waits).  Results
  and counters are bit-identical to the pre-gateway direct calls (the
  equivalence tests pin that); each distinct read is executed and sized
  once per canonical state for the cohort and replayed after from a
  :class:`ReadMemo` every peer's transport shares.
* :class:`BatchingGateway` — wraps any other gateway and coalesces the
  per-round fan-out of contract reads (registration checks, visible-
  submission polls, reputation reads, finalization polls) behind a
  head-keyed cache with a bounded staleness window.  Read-only contract
  state is a pure function of the canonical head, so serving repeated
  polls of an unchanged head from cache is *exactly* result-preserving —
  only the number of transport round trips changes (the property
  ``tests/test_chain_gateway.py`` pins).

Transport failures surface as typed :class:`~repro.errors.GatewayError`
subclasses — unknown contract, unknown method, reverted call, rejected
transaction, timed-out wait — identically across backends, so FL-layer
callers never catch raw ``KeyError`` or backend internals.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.chain.crypto import Address
from repro.chain.network import P2PNetwork
from repro.chain.node import Node
from repro.chain.transaction import Transaction
from repro.errors import (
    CallRevertedError,
    ContractNotFoundError,
    ContractRevertError,
    GatewayError,
    GatewayTimeoutError,
    MempoolError,
    MethodNotFoundError,
    NetworkError,
    SerializationError,
    TransactionRejectedError,
    UnknownContractError,
    UnknownMethodError,
)
from repro.utils.events import Simulator
from repro.utils.serialization import canonical_dumps

#: Default wait deadline (simulated seconds) when the caller gives none.
DEFAULT_WAIT_DEADLINE = 100_000.0

#: The gateway backends shipping today — the single source every layer
#: (scenario spec, driver config, CLI) validates backend names against.
GATEWAY_BACKENDS = ("inprocess", "batching")

#: Cache entries a :class:`BatchingGateway` keeps before sweeping stale ones.
BATCH_CACHE_LIMIT = 4096


#: Argument types :meth:`CallRequest.key` keys by (type, value) as they are.
_KEYED_BY_VALUE = frozenset({str, int, bool, type(None)})


def _payload_bytes(value: Any) -> int:
    """Wire-size estimate of one request/response payload."""
    try:
        return len(canonical_dumps(value))
    except SerializationError:
        return len(repr(value).encode("utf-8", errors="replace"))


def _request_key(contract: Address, method: str, args: dict) -> tuple:
    """See :meth:`CallRequest.key`."""
    parts = []
    for name in sorted(args):
        value = args[name]
        if isinstance(value, np.generic):
            value = value.item()  # what canonical JSON reduces it to
        kind = type(value)
        if kind is float:
            value = repr(value)  # -0.0 and nan, as JSON spells them
        elif kind not in _KEYED_BY_VALUE:
            return (contract, method, canonical_dumps(args))
        parts.append((name, kind, value))
    return (contract, method, tuple(parts))


@dataclass(frozen=True)
class CallRequest:
    """One read-only contract call (the unit ``batch_call`` coalesces).

    The request owns its ``args``: it keeps a copy of the dict it was
    built from (a deep copy once an argument is a container, bytes or an
    array) and computes its key once, at construction, so a caller editing
    that dict afterwards changes neither the arguments nor the key.
    """

    contract: Address
    method: str
    args: dict = field(default_factory=dict)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = _request_key(self.contract, self.method, self.args)
        by_value = isinstance(key[2], tuple)
        object.__setattr__(self, "args", dict(self.args) if by_value else copy.deepcopy(self.args))
        object.__setattr__(self, "_key", key)

    def key(self) -> tuple:
        """Canonical identity of this read (cache / dedup key).

        Two requests share a key exactly when their canonical JSON is the
        same, so ``1``, ``1.0`` and ``True`` stay distinct.  The scalar
        argument types contracts accept are keyed without encoding
        anything; containers, bytes and arrays fall back to the canonical
        encoding of the whole argument dict.
        """
        return self._key

    def wire_bytes(self) -> int:
        """Wire-size estimate of the encoded request."""
        return _payload_bytes({"to": self.contract, "method": self.method, "args": self.args})


@dataclass
class GatewayStats:
    """Per-gateway instrumentation: counts, bytes, round trips, latency.

    ``calls`` counts single-read round trips and ``batch_calls`` counts
    batched round trips (each batch is one trip carrying ``batched_reads``
    reads) — ``contract_call_round_trips`` is the number the batching
    benchmark compares across backends.  ``head_checks`` counts head-hash
    observations on any layer; ``cache_hits`` counts reads the batching
    backend answered from its own cache.  The transport's :class:`ReadMemo` is
    invisible here: a replayed read moves exactly the counters an executed
    one would.
    """

    calls: int = 0
    batch_calls: int = 0
    batched_reads: int = 0
    submits: int = 0
    height_reads: int = 0
    head_checks: int = 0
    contract_checks: int = 0
    log_queries: int = 0
    nonce_reads: int = 0
    waits: int = 0
    cache_hits: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    # Resilience telemetry (populated by the fault/retry decorators in
    # repro.faults.gateway; zero everywhere else).  ``backoff_seconds``
    # is deterministic simulated budget accounting, not wall clock, so it
    # stays in ``as_dict`` unlike the wire latencies.
    retries: int = 0
    faults_injected: int = 0
    deadline_misses: int = 0
    gave_up: int = 0
    deduped_submits: int = 0
    backoff_seconds: float = 0.0
    # Wire telemetry (populated by the multiprocess workers' blob mirror
    # in repro.runtime; all zeros on every ledger gateway).  The byte and
    # round-trip counters are deterministic functions of the run and stay
    # in ``as_dict``; the latency accumulators are wall clock and do not.
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    rpc_round_trips: int = 0
    wire_seconds: float = 0.0
    wire_method_seconds: dict = field(default_factory=dict)

    #: Wall-clock accumulators excluded from :meth:`as_dict` so result
    #: objects stay deterministic across identical runs.
    _WALL_CLOCK_FIELDS = ("wire_seconds", "wire_method_seconds")

    @property
    def contract_call_round_trips(self) -> int:
        """Contract-read round trips this gateway performed."""
        return self.calls + self.batch_calls

    @property
    def requested_reads(self) -> int:
        """Contract reads asked of this gateway (before any coalescing)."""
        return self.calls + self.batched_reads

    def add(self, other: "GatewayStats") -> None:
        """Accumulate another gateway's counters (cohort aggregation)."""
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0.0) + value
            else:
                setattr(self, spec.name, mine + theirs)

    def as_dict(self) -> dict:
        """Counters plus the derived round-trip totals.

        The wall-clock latency accumulators (``wire_seconds``, per-method
        wire latency) are deliberately left out: every other number here
        is a deterministic function of the run, and result objects compare
        equal across identical runs.  The latency accumulators stay
        readable on the object itself (the gateway benchmarks report them).
        """
        payload = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in self._WALL_CLOCK_FIELDS
        }
        payload["contract_call_round_trips"] = self.contract_call_round_trips
        payload["requested_reads"] = self.requested_reads
        return payload


@runtime_checkable
class ChainGateway(Protocol):
    """The ledger service API the FL layer programs against.

    Implementations must expose a :class:`GatewayStats` as ``stats`` and
    raise :class:`~repro.errors.GatewayError` subclasses for transport
    failures.  All reads answer from the backend's canonical head view.
    """

    stats: GatewayStats

    def call(self, contract: Address, method: str, **args: Any) -> Any:
        """Read-only contract call (``eth_call``)."""
        ...

    def batch_call(self, requests: Sequence[CallRequest]) -> list[Any]:
        """Execute independent reads in one round trip, preserving order."""
        ...

    def submit(self, tx: Transaction) -> str:
        """Submit a signed transaction; returns its hash."""
        ...

    def height(self) -> int:
        """Canonical chain height."""
        ...

    def head_hash(self) -> str:
        """Canonical head block hash (the read-cache fingerprint)."""
        ...

    def has_contract(self, address: Address) -> bool:
        """True iff a contract is deployed at ``address`` in head state."""
        ...

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        """Query contract events over the canonical range (``eth_getLogs``)."""
        ...

    def next_nonce(self, address: Address) -> int:
        """Nonce a wallet should use next (head nonce + pending count)."""
        ...

    def now(self) -> float:
        """Transport clock (simulated seconds in-process)."""
        ...

    def view_token(self) -> Optional[str]:
        """What this stack's reads are a function of, or ``None``.

        Two equal tokens promise that every read-only answer (``call``,
        ``batch_call``, ``has_contract``) is the same at both, so a waiting
        caller need not ask again until the token moves.  ``None`` means
        no such promise: re-read every time.  Costs no counter and no
        fault draw.
        """
        ...

    def wait_for(
        self,
        predicate: Callable[[], bool],
        what: str,
        deadline: Optional[float] = None,
    ) -> float:
        """Advance the transport until ``predicate`` holds; returns the time."""
        ...


#: Stands in a :class:`ReadMemo` for a read whose value depends on the
#: caller; the values themselves are kept under ``(request key, caller)``.
_BY_CALLER = object()


class ReadMemo:
    """Contract-read results of one cohort, keyed by canonical state.

    A read-only contract call is a pure function of the head state and the
    request — plus the reading node's address for a method whose own frame
    reads ``ctx.sender`` (today ``register`` and ``rate``, simulated;
    :attr:`~repro.chain.runtime.ContractRuntime.read_used_caller` says
    which).  Every node standing on one head hash holds the same
    root-verified state, block number and timestamp, so one execution per
    (head, request) serves the whole cohort, and one per (head, request,
    caller) where the caller mattered.  Reads that raise are never kept.

    Each :class:`InProcessGateway` stands on the head its latest read was
    served at, and a head's entries are dropped when the last gateway
    standing on it moves on: the memo holds at most one head per gateway.
    Request wire sizes are kept per request for the whole run, since they
    do not depend on the head.

    One memo per run (``DecentralizedFL`` makes it beside the
    :class:`~repro.chain.scale.BlockExecutionMemo`), shared by gateways
    whose nodes run one contract runtime from one genesis.
    """

    def __init__(self) -> None:
        # head -> {request key: (value, request bytes, response bytes)
        #          | _BY_CALLER, (request key, caller): (value, ...)}
        self._reads: dict[str, dict] = {}
        self._standing: dict[str, int] = {}
        self._request_bytes: dict[tuple, int] = {}

    def stand(self, left: Optional[str], head: str) -> dict:
        """Move one gateway from ``left`` (None before its first read) to
        ``head``; returns the reads kept at ``head``."""
        if left is not None:
            remaining = self._standing.pop(left) - 1
            if remaining:
                self._standing[left] = remaining
            else:
                del self._reads[left]
        self._standing[head] = self._standing.get(head, 0) + 1
        return self._reads.setdefault(head, {})

    def heads(self) -> set[str]:
        """The heads some gateway stands on — the only ones that can hold
        entries."""
        return set(self._reads)

    def request_bytes(self, request: CallRequest) -> int:
        """Wire size of ``request``, encoded once per distinct request."""
        key = request.key()
        size = self._request_bytes.get(key)
        if size is None:
            size = self._request_bytes[key] = request.wire_bytes()
        return size


class InProcessGateway:
    """Gateway backend wrapping a local :class:`~repro.chain.node.Node`.

    ``network`` (when given) gossips submissions exactly as the pre-gateway
    drivers did; ``simulator`` backs ``wait_for`` and the transport clock.
    Results are bit-identical to calling the node directly — the contract
    the equivalence suite pins.

    Its :meth:`view_token` is the node's head hash, so a waiting driver
    re-reads a peer only after that peer's head moved.  Every peer on one
    head still asks the same few reads, so each distinct read is executed
    and its request/response wire sizes are measured once per canonical
    state for the cohort: ``memo`` (the run's shared
    :class:`ReadMemo`; a private one when not given) keeps the value and
    the sizes until no gateway stands on that head, and a repeat adds the
    stored sizes to ``stats`` as if it had run.  Every counter is
    therefore the function of the run it would be without the memo;
    encoding each read's payload again just to take its length measured
    41 % of a 25-peer round when every waiting peer was polled after every
    simulator event.  Values are shared between repeats and between
    peers: callers treat them as read-only, the rule
    :class:`BatchingGateway` documents.

    The wrapped ``node`` stays reachable as ``.node`` for chain forensics
    (merkle evidence, receipts) and tests; FL-layer *code* must not use it
    (a seam test greps for that).
    """

    def __init__(
        self,
        node: Node,
        network: Optional[P2PNetwork] = None,
        simulator: Optional[Simulator] = None,
        default_deadline: float = DEFAULT_WAIT_DEADLINE,
        memo: Optional[ReadMemo] = None,
    ) -> None:
        self.node = node
        self.network = network
        self.simulator = simulator
        self.default_deadline = default_deadline
        self.stats = GatewayStats()
        self.memo = memo if memo is not None else ReadMemo()
        # The head this gateway stands on in ``memo`` and the reads kept there.
        self._head: Optional[str] = None
        self._reads: dict = {}

    # -- reads -------------------------------------------------------------

    def _execute_read(self, request: CallRequest) -> Any:
        """One contract read, from the memo when this state has served it."""
        head = self.node.head_hash
        if head != self._head:
            self._reads = self.memo.stand(self._head, head)
            self._head = head
        key = request.key()
        known = self._reads.get(key)
        if known is _BY_CALLER:
            known = self._reads.get((key, self.node.address))
        if known is None:
            known = self._read_node(request, key)
        value, request_bytes, response_bytes = known
        self.stats.request_bytes += request_bytes
        self.stats.response_bytes += response_bytes
        return value

    def _read_node(self, request: CallRequest, key: tuple) -> tuple[Any, int, int]:
        """Execute a read on the node, with transport errors mapped to
        gateway types, and keep what it returned."""
        try:
            value = self.node.call_contract(request.contract, request.method, **request.args)
        except ContractNotFoundError as exc:
            raise UnknownContractError(str(exc)) from exc
        except MethodNotFoundError as exc:
            raise UnknownMethodError(str(exc)) from exc
        except ContractRevertError as exc:
            raise CallRevertedError(exc.reason or str(exc)) from exc
        known = (value, self.memo.request_bytes(request), _payload_bytes(value))
        if self.node.runtime.read_used_caller:
            self._reads[key] = _BY_CALLER
            key = (key, self.node.address)
        self._reads[key] = known
        return known

    def call(self, contract: Address, method: str, **args: Any) -> Any:
        """Read-only contract call against the node's head state."""
        self.stats.calls += 1
        return self._execute_read(CallRequest(contract, method, args))

    def batch_call(self, requests: Sequence[CallRequest]) -> list[Any]:
        """Serve independent reads in one (in-process) round trip."""
        self.stats.batch_calls += 1
        self.stats.batched_reads += len(requests)
        return [self._execute_read(request) for request in requests]

    def height(self) -> int:
        """Canonical chain height."""
        self.stats.height_reads += 1
        return self.node.height

    def head_hash(self) -> str:
        """Canonical head hash — changes exactly when head state can."""
        self.stats.head_checks += 1
        return self.node.head_hash

    def has_contract(self, address: Address) -> bool:
        """Contract-deployed check at the head state."""
        self.stats.contract_checks += 1
        return self.node.has_contract(address)

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        """Event query over the node's canonical receipts."""
        self.stats.log_queries += 1
        return self.node.get_logs(
            address=address, topic=topic, from_block=from_block, to_block=to_block
        )

    def next_nonce(self, address: Address) -> int:
        """Wallet nonce: head account nonce plus pending transactions."""
        self.stats.nonce_reads += 1
        return self.node.next_nonce_for(address)

    # -- writes ------------------------------------------------------------

    def submit(self, tx: Transaction) -> str:
        """Admit a signed transaction locally and gossip it (when wired).

        A mempool rejection (forged signature, stale nonce, unaffordable
        cost, pool full) surfaces as a typed
        :class:`~repro.errors.TransactionRejectedError`; benign duplicates
        are accepted silently, as on a real client.
        """
        self.stats.submits += 1
        self.stats.request_bytes += _payload_bytes(
            {"to": tx.to, "method": tx.method, "args": tx.args, "nonce": tx.nonce}
        )
        if self.network is not None:
            if not self.network.broadcast_transaction(self.node.address, tx):
                raise TransactionRejectedError(
                    f"transaction {tx.tx_hash[:10]} rejected by the mempool"
                )
            return tx.tx_hash
        try:
            self.node.submit_transaction(tx)
        except MempoolError as exc:
            raise TransactionRejectedError(str(exc)) from exc
        return tx.tx_hash

    # -- clock / waits -----------------------------------------------------

    def now(self) -> float:
        """Simulated transport time (0.0 without a simulator)."""
        return self.simulator.now if self.simulator is not None else 0.0

    def view_token(self) -> str:
        """The node's head hash: reads answer from head state alone."""
        return self.node.head_hash

    def wait_for(
        self,
        predicate: Callable[[], bool],
        what: str,
        deadline: Optional[float] = None,
    ) -> float:
        """Step the event engine until ``predicate`` holds.

        Raises :class:`~repro.errors.GatewayTimeoutError` (a
        :class:`~repro.errors.RoundError`) past the deadline and
        :class:`~repro.errors.NetworkError` if the simulation drains first
        — the exact semantics of the pre-gateway ``_wait_until``.
        """
        if self.simulator is None:
            raise GatewayError(f"gateway has no simulator to wait for {what}")
        self.stats.waits += 1
        sim = self.simulator
        limit = sim.now + (deadline if deadline is not None else self.default_deadline)
        while sim.now <= limit:
            if predicate():
                return sim.now
            if not sim.step():
                raise NetworkError(f"simulation drained while waiting for {what}")
        raise GatewayTimeoutError(f"timed out waiting for {what} at t={sim.now:.1f}")


@dataclass
class _CacheEntry:
    head: str
    at: float
    value: Any


class BatchingGateway:
    """Read-coalescing gateway decorator with a bounded staleness window.

    Contract reads (``call`` / ``batch_call`` / ``has_contract``) are
    served from a cache keyed by the canonical head hash: head state is
    immutable between head changes, so a hit returns exactly what a fresh
    round trip would — results are provably unchanged, only transport
    round trips shrink.  Entries additionally expire ``staleness``
    transport-seconds after they were fetched (defense in depth for a
    transport whose head signal lags).  ``batch_call`` answers hits
    locally and forwards only the misses as one inner round trip.

    Every lookup makes one fresh head observation (``head_hash``),
    counted separately in ``stats.head_checks`` — in-process that is a
    local field read; a remote backend is expected to serve it from a
    pushed new-heads subscription (the standard JSON-RPC pattern), not a
    per-read request, which is what keeps the coalescing a genuine
    round-trip win off-process.  Cached values are shared — callers must
    treat them as read-only (the FL layer does; the same rule a memoizing
    RPC proxy imposes).  Nonce reads and submissions always pass through.
    """

    def __init__(self, inner: ChainGateway, staleness: float = 5.0) -> None:
        if staleness <= 0:
            raise GatewayError(f"staleness window must be positive, got {staleness}")
        self.inner = inner
        self.staleness = staleness
        self.stats = GatewayStats()
        self._cache: dict[tuple, _CacheEntry] = {}

    # -- cache core --------------------------------------------------------

    def _fresh(self, entry: _CacheEntry, head: str, now: float) -> bool:
        return entry.head == head and (now - entry.at) <= self.staleness

    def _remember(self, key: tuple, head: str, now: float, value: Any) -> None:
        if len(self._cache) >= BATCH_CACHE_LIMIT:
            self._cache = {
                k: entry for k, entry in self._cache.items() if self._fresh(entry, head, now)
            }
        self._cache[key] = _CacheEntry(head=head, at=now, value=value)

    def _observe(self) -> tuple[str, float]:
        """One head observation (head hash and transport clock) shared by
        every read of a lookup."""
        self.stats.head_checks += 1
        return self.inner.head_hash(), self.inner.now()

    # -- reads -------------------------------------------------------------

    def call(self, contract: Address, method: str, **args: Any) -> Any:
        """Cached read; one inner round trip per (head, request)."""
        self.stats.calls += 1
        request = CallRequest(contract, method, args)
        key = ("call",) + request.key()
        head, now = self._observe()
        entry = self._cache.get(key)
        if entry is not None and self._fresh(entry, head, now):
            self.stats.cache_hits += 1
            return entry.value
        value = self.inner.call(contract, method, **args)
        self._remember(key, head, now, value)
        return value

    def batch_call(self, requests: Sequence[CallRequest]) -> list[Any]:
        """Answer hits from cache; forward misses as one inner round trip."""
        self.stats.batch_calls += 1
        self.stats.batched_reads += len(requests)
        head, now = self._observe()
        values: list[Any] = [None] * len(requests)
        misses: list[tuple[int, tuple, CallRequest]] = []
        for index, request in enumerate(requests):
            key = ("call",) + request.key()
            entry = self._cache.get(key)
            if entry is not None and self._fresh(entry, head, now):
                self.stats.cache_hits += 1
                values[index] = entry.value
            else:
                misses.append((index, key, request))
        if misses:
            fetched = self.inner.batch_call([request for _, _, request in misses])
            for (index, key, _request), value in zip(misses, fetched):
                values[index] = value
                self._remember(key, head, now, value)
        return values

    def has_contract(self, address: Address) -> bool:
        """Cached contract-deployed check."""
        self.stats.contract_checks += 1
        key = ("has_contract", address)
        head, now = self._observe()
        entry = self._cache.get(key)
        if entry is not None and self._fresh(entry, head, now):
            self.stats.cache_hits += 1
            return entry.value
        value = self.inner.has_contract(address)
        self._remember(key, head, now, value)
        return value

    # -- pass-throughs -----------------------------------------------------

    def height(self) -> int:
        """Canonical height (uncached: it IS the freshness signal)."""
        self.stats.height_reads += 1
        return self.inner.height()

    def head_hash(self) -> str:
        """Canonical head hash from the inner transport."""
        self.stats.head_checks += 1
        return self.inner.head_hash()

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        """Event queries pass through (range queries are already indexed)."""
        self.stats.log_queries += 1
        return self.inner.get_logs(
            address=address, topic=topic, from_block=from_block, to_block=to_block
        )

    def next_nonce(self, address: Address) -> int:
        """Never cached: the pending count moves with every submission."""
        self.stats.nonce_reads += 1
        return self.inner.next_nonce(address)

    def submit(self, tx: Transaction) -> str:
        """Submissions pass through; head-keyed entries stay valid."""
        self.stats.submits += 1
        return self.inner.submit(tx)

    def now(self) -> float:
        """Inner transport clock."""
        return self.inner.now()

    def view_token(self) -> None:
        """No promise: an entry past its staleness window goes back to the
        transport, so when a read happens changes the round-trip counts."""
        return None

    def wait_for(
        self,
        predicate: Callable[[], bool],
        what: str,
        deadline: Optional[float] = None,
    ) -> float:
        """Delegate the wait; polled reads hit the cache between blocks."""
        self.stats.waits += 1
        return self.inner.wait_for(predicate, what, deadline=deadline)


def gateway_layers(gateway: ChainGateway) -> list[ChainGateway]:
    """Every layer of a decorated gateway stack, outermost first.

    Decorators expose the wrapped gateway as ``.inner`` (the convention
    ``BatchingGateway`` set and the fault/retry decorators follow), so
    walking ``inner`` enumerates the whole stack down to the transport.
    """
    layers: list[ChainGateway] = [gateway]
    while hasattr(layers[-1], "inner"):
        layers.append(layers[-1].inner)
    return layers


def stacked_stats(gateway: ChainGateway) -> GatewayStats:
    """Sum of every layer's counters in a decorated gateway stack.

    Mid-stack telemetry (``faults_injected`` on the fault layer,
    ``retries`` on the resilience layer, ``cache_hits`` on the batching
    layer) lives on different layers; this is the one view that sees all
    of it at once.
    """
    total = GatewayStats()
    for layer in gateway_layers(gateway):
        total.add(layer.stats)
    return total


def transport_stats(gateway: ChainGateway) -> GatewayStats:
    """The stats of the gateway actually touching the transport.

    For a decorated gateway (``BatchingGateway``) that is the innermost
    backend's counters — the real round trips; for a plain backend it is
    its own counters.
    """
    return gateway_layers(gateway)[-1].stats
