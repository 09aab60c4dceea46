"""Fault-injecting and resilient :class:`ChainGateway` decorators.

:class:`FaultyGateway` sits just above the transport and consults a
:class:`~repro.faults.plan.FaultInjector` on every operation: injected
transient errors and timeouts are raised *before* the wrapped call takes
effect (the call never reached the ledger, so a retry is the first real
delivery), and latency spikes advance the simulated clock.  A crashed
peer's gateway refuses everything with
:class:`~repro.errors.GatewayUnavailableError`.

:class:`ResilientGateway` sits at the top of the stack and absorbs the
retryable subset — :class:`~repro.errors.TransientGatewayError` and
:class:`~repro.errors.GatewayTimeoutError` — with bounded retries under
deterministic capped exponential backoff.  Backoff is *accounted* in
simulated seconds against a per-method budget (``stats.backoff_seconds``)
rather than physically advancing the clock: a retried pre-effect fault
must leave the mining/gossip trace untouched, which is what makes
transient-only fault plans byte-equivalent to fault-free runs.  Give-ups
and an open circuit breaker surface as the single typed
:class:`~repro.errors.GatewayUnavailableError` the round driver uses to
drop a peer from the current round instead of aborting the run.

Both decorators expose the wrapped gateway as ``.inner``, composing with
:class:`~repro.chain.gateway.BatchingGateway` and the stack-walking stats
helpers.  Canonical per-peer stack, outermost first::

    ResilientGateway -> [BatchingGateway ->] FaultyGateway -> InProcessGateway
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.chain.crypto import Address
from repro.chain.gateway import CallRequest, ChainGateway, GatewayStats
from repro.chain.network import NetworkStats
from repro.chain.transaction import Transaction
from repro.errors import (
    GatewayTimeoutError,
    GatewayUnavailableError,
    TransactionRejectedError,
    TransientGatewayError,
)
from repro.faults.plan import FaultInjector, RetryPolicy
from repro.utils.events import Simulator

#: Exceptions :class:`ResilientGateway` retries; everything else —
#: rejections, reverts, unknown contract/method — is permanent.
RETRYABLE_ERRORS = (TransientGatewayError, GatewayTimeoutError)


class FaultyGateway:
    """Gateway decorator injecting the faults an injector schedules.

    ``network_stats`` (the shared :class:`~repro.chain.network.NetworkStats`)
    is credited for latency spikes so fault benches can report what the
    injector actually did alongside the organic network counters.
    """

    def __init__(
        self,
        inner: ChainGateway,
        peer_id: str,
        injector: FaultInjector,
        simulator: Optional[Simulator] = None,
        network_stats: Optional[NetworkStats] = None,
    ) -> None:
        self.inner = inner
        self.peer_id = peer_id
        self.injector = injector
        self.simulator = simulator
        self.network_stats = network_stats
        self.stats = GatewayStats()

    # -- injection core ----------------------------------------------------

    def _delay(self, seconds: float) -> None:
        """Physically advance the simulated clock by ``seconds``.

        ``Simulator.run(until=...)`` only advances to ``until`` when a
        later event exists, so a no-op wake event pins the target time
        even on an otherwise-drained queue.
        """
        if self.simulator is None:
            return
        target = self.simulator.now + seconds
        self.simulator.schedule_at(target, lambda: None, label="fault-latency")
        self.simulator.run(until=target)

    def _intercept(self, method: str) -> None:
        """Apply the crash, latency or error fault scheduled for this call."""
        if self.injector.crashed(self.peer_id):
            raise GatewayUnavailableError(
                f"peer {self.peer_id} is crashed this round"
            )
        kind = self.injector.decide(self.peer_id, method)
        if kind is None:
            return
        self.stats.faults_injected += 1
        if kind == "latency":
            self._delay(self.injector.spec.latency_spike)
            if self.network_stats is not None:
                self.network_stats.messages_delayed += 1
        elif kind == "transient":
            raise TransientGatewayError(
                f"injected transient failure on {method} for peer {self.peer_id}"
            )
        else:
            raise GatewayTimeoutError(
                f"injected timeout on {method} for peer {self.peer_id}"
            )

    # -- reads -------------------------------------------------------------

    def call(self, contract: Address, method: str, **args: Any) -> Any:
        self.stats.calls += 1
        self._intercept("call")
        return self.inner.call(contract, method, **args)

    def batch_call(self, requests: Sequence[CallRequest]) -> list[Any]:
        self.stats.batch_calls += 1
        self.stats.batched_reads += len(requests)
        self._intercept("batch_call")
        return self.inner.batch_call(requests)

    def has_contract(self, address: Address) -> bool:
        self.stats.contract_checks += 1
        self._intercept("has_contract")
        return self.inner.has_contract(address)

    def height(self) -> int:
        self.stats.height_reads += 1
        self._intercept("height")
        return self.inner.height()

    def head_hash(self) -> str:
        self.stats.head_checks += 1
        self._intercept("head_hash")
        return self.inner.head_hash()

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        self.stats.log_queries += 1
        self._intercept("get_logs")
        return self.inner.get_logs(
            address=address, topic=topic, from_block=from_block, to_block=to_block
        )

    def next_nonce(self, address: Address) -> int:
        self.stats.nonce_reads += 1
        self._intercept("next_nonce")
        return self.inner.next_nonce(address)

    # -- writes ------------------------------------------------------------

    def submit(self, tx: Transaction) -> str:
        """Submit with pre-effect error faults: they fire *before*
        ``inner.submit``, so the transaction never reached the ledger and
        a retry is its first delivery."""
        self.stats.submits += 1
        self._intercept("submit")
        return self.inner.submit(tx)

    # -- clock / waits -----------------------------------------------------

    def now(self) -> float:
        return self.inner.now()

    def view_token(self) -> None:
        """No promise: every read draws from the injector, so which faults
        fire depends on how many reads are made."""
        return None

    def wait_for(
        self,
        predicate: Callable[[], bool],
        what: str,
        deadline: Optional[float] = None,
    ) -> float:
        """Waits pass through uninjected — the polled reads inside the
        predicate go through the full stack and get faulted there.  This
        layer's :meth:`view_token` is ``None``, so a driver waiting on a
        peer behind it re-reads that peer after every simulator event, and
        the injector makes the same draws at the same instants as a driver
        that polls every event."""
        self.stats.waits += 1
        return self.inner.wait_for(predicate, what, deadline=deadline)


class ResilientGateway:
    """Retry/backoff/breaker gateway decorator (the top of the stack).

    Retries :data:`RETRYABLE_ERRORS` up to ``policy.max_attempts`` with
    deterministic capped exponential backoff accounted against the
    per-method simulated-seconds budget.  ``submit`` is idempotent: an
    acknowledged tx hash is never re-sent, and a typed rejection on a
    retry *after* an ambiguous failure is treated as "already applied"
    (the first attempt may have landed before the fault) — so a retried
    submit never double-applies.  ``breaker_threshold`` consecutive
    give-ups open the circuit for ``breaker_cooldown`` simulated seconds;
    the first call after cooldown is the half-open probe.
    """

    def __init__(self, inner: ChainGateway, policy: Optional[RetryPolicy] = None) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = GatewayStats()
        self._acked: set[str] = set()
        self._failures = 0
        self._tripped_at: Optional[float] = None

    # -- breaker -----------------------------------------------------------

    def _check_breaker(self, method: str) -> None:
        if self._tripped_at is None:
            return
        elapsed = self.inner.now() - self._tripped_at
        if elapsed < self.policy.breaker_cooldown:
            raise GatewayUnavailableError(
                f"circuit open: {method} refused "
                f"({self.policy.breaker_cooldown - elapsed:.1f}s of cooldown left)"
            )
        # Past cooldown: leave the trip mark in place and let this call
        # through as the half-open probe — success closes the breaker,
        # another give-up re-trips it from now.

    def _note_success(self) -> None:
        self._failures = 0
        self._tripped_at = None

    def _note_give_up(self) -> None:
        self._failures += 1
        if self._failures >= self.policy.breaker_threshold or self._tripped_at is not None:
            self._tripped_at = self.inner.now()

    # -- retry core --------------------------------------------------------

    def _run(self, method: str, op: Callable[[], Any]) -> Any:
        self._check_breaker(method)
        budget = self.policy.budget_for(method)
        attempts = 0
        waited = 0.0
        while True:
            attempts += 1
            try:
                value = op()
            except RETRYABLE_ERRORS as exc:
                if isinstance(exc, GatewayTimeoutError):
                    self.stats.deadline_misses += 1
                delay = self.policy.backoff(attempts)
                if attempts >= self.policy.max_attempts or waited + delay > budget:
                    self.stats.gave_up += 1
                    self._note_give_up()
                    raise GatewayUnavailableError(
                        f"{method} gave up after {attempts} attempts "
                        f"({waited:.1f}s of backoff)"
                    ) from exc
                waited += delay
                self.stats.retries += 1
                self.stats.backoff_seconds += delay
                continue
            self._note_success()
            return value

    # -- reads -------------------------------------------------------------

    def call(self, contract: Address, method: str, **args: Any) -> Any:
        self.stats.calls += 1
        return self._run("call", lambda: self.inner.call(contract, method, **args))

    def batch_call(self, requests: Sequence[CallRequest]) -> list[Any]:
        self.stats.batch_calls += 1
        self.stats.batched_reads += len(requests)
        return self._run("batch_call", lambda: self.inner.batch_call(requests))

    def height(self) -> int:
        self.stats.height_reads += 1
        return self._run("height", self.inner.height)

    def head_hash(self) -> str:
        self.stats.head_checks += 1
        return self._run("head_hash", self.inner.head_hash)

    def has_contract(self, address: Address) -> bool:
        self.stats.contract_checks += 1
        return self._run("has_contract", lambda: self.inner.has_contract(address))

    def get_logs(
        self,
        address: Optional[Address] = None,
        topic: Optional[str] = None,
        from_block: int = 0,
        to_block: Optional[int] = None,
    ) -> list:
        self.stats.log_queries += 1
        return self._run(
            "get_logs",
            lambda: self.inner.get_logs(
                address=address, topic=topic, from_block=from_block, to_block=to_block
            ),
        )

    def next_nonce(self, address: Address) -> int:
        self.stats.nonce_reads += 1
        return self._run("next_nonce", lambda: self.inner.next_nonce(address))

    # -- writes ------------------------------------------------------------

    def submit(self, tx: Transaction) -> str:
        self.stats.submits += 1
        tx_hash = tx.tx_hash
        if tx_hash in self._acked:
            self.stats.deduped_submits += 1
            return tx_hash
        attempted = False

        def attempt() -> None:
            # Only a retryable fault earns a retry, and it may have struck
            # before OR after the ledger saw the transaction.  So a
            # rejection of any attempt but the first means an earlier one
            # landed (nonce consumed): already applied — success, not error.
            nonlocal attempted
            first, attempted = not attempted, True
            try:
                self.inner.submit(tx)
            except TransactionRejectedError:
                if first:
                    raise
                self.stats.deduped_submits += 1

        self._run("submit", attempt)
        self._acked.add(tx_hash)
        return tx_hash

    # -- clock / waits -----------------------------------------------------

    def now(self) -> float:
        return self.inner.now()

    def view_token(self) -> None:
        """No promise: the breaker's state moves with the clock and with
        every retried read."""
        return None

    def wait_for(
        self,
        predicate: Callable[[], bool],
        what: str,
        deadline: Optional[float] = None,
    ) -> float:
        """Waits pass through un-retried: the deadline is the caller's
        protocol-level timeout, not a transport hiccup, and retryable
        faults inside the predicate are absorbed where the predicate
        calls back into this layer."""
        self.stats.waits += 1
        return self.inner.wait_for(predicate, what, deadline=deadline)
