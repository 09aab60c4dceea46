"""Deterministic fault plans: seeded schedules of injected chain faults.

A :class:`FaultSpec` declares *rates* (per-gateway-call probabilities of
transient errors, timeouts and latency spikes) and *windows* (which
rounds which peers are crashed).  A :class:`FaultPlan` resolves the spec
against a concrete cohort, and a :class:`FaultInjector` turns it into
per-call decisions drawn from the experiment's named rng streams
(``faults/<peer_id>``, mirroring the ``attack/<id>`` streams of the
adversary axis) — so the same seed always produces the same
injected-fault trace, and changing fault intensity never perturbs any
other stream.

The injector is consulted by :class:`~repro.faults.gateway.FaultyGateway`
*before* the wrapped operation takes effect: an injected transient error
or timeout means the call never reached the ledger, so a retry is the
first real delivery.  That pre-effect discipline is what makes
transient-only plans byte-equivalent to fault-free runs once
:class:`~repro.faults.gateway.ResilientGateway` absorbs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError, require_finite
from repro.utils.rng import RngFactory

#: Fault kinds in threshold order — the fixed bands one uniform draw is
#: compared against.  Order is part of the reproducibility contract.
FAULT_KINDS = ("transient", "timeout", "latency")

#: Kinds that surface as raised errors (subject to :data:`MAX_CONSECUTIVE`).
ERROR_KINDS = frozenset({"transient", "timeout"})

#: Most error faults injected in a row on one (peer, method); below the
#: default ``RetryPolicy.max_attempts``, so a retry loop always converges.
MAX_CONSECUTIVE = 2

#: Minimum peers that must stay live through any crash window.
MIN_LIVE_PEERS = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/breaker behaviour of a :class:`ResilientGateway`.

    The driver's resilient stacks all run the defaults; the gateway takes
    a policy as an optional parameter so a test can substitute one.
    Backoff is deterministic capped exponential — attempt ``k`` waits
    ``min(backoff_base * 2**(k-1), backoff_cap)`` simulated seconds,
    *accounted* against the per-method budget rather than physically
    advancing the clock (retrying a pre-effect fault must not shift the
    mining trace).  ``read_budget`` / ``submit_budget`` bound the total
    backoff a single logical operation may accumulate.
    """

    max_attempts: int = 4
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    read_budget: float = 60.0
    submit_budget: float = 120.0
    breaker_threshold: int = 8
    breaker_cooldown: float = 120.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ConfigError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if self.read_budget <= 0 or self.submit_budget <= 0:
            raise ConfigError("retry budgets must be positive")
        if self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0:
            raise ConfigError(
                f"breaker_cooldown must be positive, got {self.breaker_cooldown}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff charged after failed attempt ``attempt`` (1-based)."""
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)

    def budget_for(self, method: str) -> float:
        """Total backoff budget for one logical operation of ``method``."""
        return self.submit_budget if method == "submit" else self.read_budget


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault axis: per-call rates plus crash windows.

    Rates are probabilities per intercepted gateway call; their sum must
    stay below 1 because one uniform draw per call is partitioned into
    cumulative bands (:data:`FAULT_KINDS` order).  ``crash_fraction``
    crashes the *last* ``ceil(fraction * n)`` peers (the same tail-of-
    cohort convention the adversary and straggler axes use) for rounds
    ``[crash_round, crash_round + crash_rounds)`` (rounds are 1-based;
    a window may run past the last round), capped so at least
    :data:`MIN_LIVE_PEERS` stay live.  ``resilience`` toggles the
    retry/backoff layer (the default :class:`RetryPolicy`); with it off,
    injected faults surface raw.
    """

    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    latency_rate: float = 0.0
    latency_spike: float = 5.0
    crash_fraction: float = 0.0
    crash_round: int = 2
    crash_rounds: int = 1
    resilience: bool = True

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("transient_rate", "timeout_rate", "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        if sum(self.rates()) >= 1.0:
            raise ConfigError(
                f"fault rates must sum below 1 (one draw per call), "
                f"got {sum(self.rates())}"
            )
        if self.latency_spike <= 0:
            raise ConfigError(f"latency_spike must be positive, got {self.latency_spike}")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ConfigError(
                f"crash_fraction must be in [0, 1], got {self.crash_fraction}"
            )
        if self.crash_round < 1 or self.crash_rounds < 1:
            raise ConfigError(
                f"need crash_round >= 1 (rounds are 1-based) and "
                f"crash_rounds >= 1, got {self.crash_round}/{self.crash_rounds}"
            )

    def rates(self) -> tuple[float, ...]:
        """Per-call rates in :data:`FAULT_KINDS` order."""
        return (self.transient_rate, self.timeout_rate, self.latency_rate)

    @property
    def call_faults_active(self) -> bool:
        """True iff any per-call fault can fire (streams will be drawn)."""
        return any(rate > 0 for rate in self.rates())

    @property
    def active(self) -> bool:
        """True iff this spec injects anything at all."""
        return self.call_faults_active or self.crash_fraction > 0


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the reproducible trace."""

    seq: int
    peer_id: str
    method: str
    kind: str


class FaultPlan:
    """A :class:`FaultSpec` resolved against a concrete cohort."""

    def __init__(self, spec: FaultSpec, peer_ids: Sequence[str]) -> None:
        self.spec = spec
        self.peer_ids = tuple(peer_ids)
        n = len(self.peer_ids)
        wanted = math.ceil(spec.crash_fraction * n)
        allowed = max(0, n - MIN_LIVE_PEERS)
        count = min(wanted, allowed)
        # Deterministic tail-of-cohort assignment, mirroring the
        # adversary axis ("last k clients attack").
        self.crashed_peers: tuple[str, ...] = self.peer_ids[n - count :] if count else ()

    def crash_window(self) -> range:
        """Round ids during which the crashed peers are down."""
        return range(
            self.spec.crash_round, self.spec.crash_round + self.spec.crash_rounds
        )

    def down(self, round_id: int) -> frozenset:
        """Peers crashed for the whole of round ``round_id``."""
        if self.crashed_peers and round_id in self.crash_window():
            return frozenset(self.crashed_peers)
        return frozenset()


class FaultInjector:
    """Draws per-call fault decisions from seeded ``faults/<peer>`` streams.

    One uniform draw per intercepted call, partitioned into cumulative
    bands in :data:`FAULT_KINDS` order; every kind applies to every
    method, so stream consumption is one draw per call.  Error faults
    (transient/timeout) are bounded: after :data:`MAX_CONSECUTIVE` in a
    row on the same (peer, method) the next would-be error is forced clean
    and the counter resets — with the retry policy's ``max_attempts``
    above the bound, a retry loop always reaches a clean attempt.

    Every delivered fault is appended to ``trace`` so two injectors built
    from the same spec, cohort, and seed yield identical traces (the
    reproducibility contract the fault tests pin).
    """

    def __init__(self, plan: FaultPlan, rngs: RngFactory) -> None:
        self.plan = plan
        self.spec = plan.spec
        self._rngs = rngs
        self.round_id: Optional[int] = None
        self._ended = False
        self.trace: list[FaultEvent] = []
        self._consecutive: dict[tuple[str, str], int] = {}
        rates = self.spec.rates()
        self._thresholds: list[tuple[float, str]] = []
        upper = 0.0
        for rate, kind in zip(rates, FAULT_KINDS):
            upper += rate
            if rate > 0:
                self._thresholds.append((upper, kind))
        self._ceiling = upper

    def begin_round(self, round_id: int) -> None:
        """Position the injector at the start of ``round_id``."""
        self.round_id = round_id
        self._ended = False

    def end_run(self) -> None:
        """Go inert: the run is over, post-run reporting must be clean.

        No peer counts as crashed afterwards and :meth:`decide` stops
        drawing (stats/height reads after the final round are part of
        reporting, not of the faulted workload).
        """
        self.round_id = None
        self._ended = True

    def crashed(self, peer_id: str) -> bool:
        """True iff ``peer_id`` is down for the current round."""
        if self.round_id is None:
            return False
        return peer_id in self.plan.down(self.round_id)

    def decide(self, peer_id: str, method: str) -> Optional[str]:
        """Fault kind to inject for this call, or ``None`` for a clean one.

        Short-circuits with *zero* rng draws when no per-call rate is
        set, so crash-only plans leave the ``faults/*`` streams untouched
        (and rate-zero runs are byte-identical to never constructing an
        injector at all).
        """
        if self._ended or self._ceiling <= 0.0:
            return None
        draw = float(self._rngs.get("faults", peer_id).random())
        kind: Optional[str] = None
        if draw < self._ceiling:
            for upper, candidate in self._thresholds:
                if draw < upper:
                    kind = candidate
                    break
        key = (peer_id, method)
        if kind in ERROR_KINDS:
            seen = self._consecutive.get(key, 0)
            if seen >= MAX_CONSECUTIVE:
                self._consecutive[key] = 0
                kind = None
            else:
                self._consecutive[key] = seen + 1
        else:
            self._consecutive[key] = 0
        if kind is not None:
            self.trace.append(FaultEvent(len(self.trace), peer_id, method, kind))
        return kind
