"""Fault harness tests: plans, injection, resilience, graceful degradation.

Covers the reproducibility contract (same seed -> same injected-fault
trace), the typed fault/retry semantics of the gateway decorators, the
byte-equivalence guarantee (transient-only plans behind the resilient
gateway change nothing), and round-level degradation (quorum rounds with
crashed peers, rejoin catch-up).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.chain.network import NetworkStats, P2PNetwork
from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import PeerConfig
from repro.data.dataset import Dataset
from repro.errors import (
    ConfigError,
    GatewayTimeoutError,
    GatewayUnavailableError,
    TransactionRejectedError,
    TransientGatewayError,
)
from repro.faults import (
    ERROR_KINDS,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultyGateway,
    MIN_LIVE_PEERS,
    ResilientGateway,
    RetryPolicy,
)
from repro.faults.plan import MAX_CONSECUTIVE
from repro.fl.scoring import weights_fingerprint
from repro.fl.trainer import TrainConfig
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.scenarios import ScenarioSpec, fault_scenario, get_scenario, run_scenario
from repro.scenarios.spec import ChainSpec
from repro.utils.events import Simulator
from repro.utils.rng import RngFactory


# ---------------------------------------------------------------------------
# Specs and plans
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_inactive_by_default(self):
        spec = FaultSpec()
        assert not spec.active
        assert not spec.call_faults_active

    def test_rates_in_kind_order(self):
        spec = FaultSpec(transient_rate=0.1, timeout_rate=0.2, latency_rate=0.3)
        assert spec.rates() == (0.1, 0.2, 0.3)
        assert FAULT_KINDS == ("transient", "timeout", "latency")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(transient_rate=1.0)
        with pytest.raises(ConfigError):
            FaultSpec(timeout_rate=-0.1)

    def test_rate_sum_must_stay_below_one(self):
        with pytest.raises(ConfigError):
            FaultSpec(transient_rate=0.5, timeout_rate=0.3, latency_rate=0.25)

    def test_crash_fraction_bounds(self):
        with pytest.raises(ConfigError):
            FaultSpec(crash_fraction=1.5)
        assert FaultSpec(crash_fraction=1.0).active

    def test_crash_round_is_one_based(self):
        # Round 0 never runs, so a crash configured there never fires.
        with pytest.raises(ConfigError, match="1-based"):
            FaultSpec(crash_fraction=0.4, crash_round=0)
        plan = FaultPlan(FaultSpec(crash_fraction=0.4, crash_round=1), list("ABCDE"))
        assert plan.down(1) == {"D", "E"}

    def test_resilient_retries_must_outnumber_consecutive_faults(self):
        # The driver's resilient stacks run the default policy against the
        # injector's bound: a retry loop always reaches a clean attempt.
        assert MAX_CONSECUTIVE < RetryPolicy().max_attempts

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_base=2.0, backoff_cap=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(breaker_cooldown=0.0)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=3.0)
        assert [policy.backoff(k) for k in (1, 2, 3, 4, 5)] == [
            0.5,
            1.0,
            2.0,
            3.0,
            3.0,
        ]

    def test_budget_per_method(self):
        policy = RetryPolicy(read_budget=10.0, submit_budget=20.0)
        assert policy.budget_for("submit") == 20.0
        assert policy.budget_for("call") == 10.0


class TestFaultPlan:
    def test_tail_of_cohort_crashes(self):
        plan = FaultPlan(FaultSpec(crash_fraction=0.4), ["A", "B", "C", "D", "E"])
        assert plan.crashed_peers == ("D", "E")

    def test_min_live_peers_cap(self):
        plan = FaultPlan(FaultSpec(crash_fraction=1.0), ["A", "B", "C"])
        assert len(plan.crashed_peers) == 3 - MIN_LIVE_PEERS
        assert "A" not in plan.crashed_peers

    def test_down_only_inside_window(self):
        spec = FaultSpec(crash_fraction=0.5, crash_round=2, crash_rounds=2)
        plan = FaultPlan(spec, ["A", "B", "C", "D"])
        assert plan.down(1) == frozenset()
        assert plan.down(2) == frozenset(plan.crashed_peers)
        assert plan.down(3) == frozenset(plan.crashed_peers)
        assert plan.down(4) == frozenset()

    def test_zero_fraction_crashes_nobody(self):
        plan = FaultPlan(FaultSpec(), ["A", "B", "C"])
        assert plan.crashed_peers == ()
        assert plan.down(2) == frozenset()


# ---------------------------------------------------------------------------
# Injector
# ---------------------------------------------------------------------------


def make_injector(spec, peers=("A", "B"), seed=7):
    plan = FaultPlan(spec, list(peers))
    return FaultInjector(plan, RngFactory(seed))


class TestFaultInjector:
    def test_same_seed_same_trace(self):
        spec = FaultSpec(transient_rate=0.2, timeout_rate=0.1)
        first, second = make_injector(spec), make_injector(spec)
        for injector in (first, second):
            injector.begin_round(1)
            for _ in range(40):
                injector.decide("A", "call")
                injector.decide("B", "submit")
        assert first.trace == second.trace
        assert first.trace  # the rates are high enough to fire

    def test_zero_rates_draw_nothing(self):
        injector = make_injector(FaultSpec(crash_fraction=0.5), peers=("A", "B", "C"))
        injector.begin_round(1)
        for _ in range(10):
            assert injector.decide("A", "call") is None
        # The faults/A stream was never touched: a fresh factory with the
        # same seed yields the very first draw of that stream.
        expected = float(RngFactory(7).get("faults", "A").random())
        actual = float(injector._rngs.get("faults", "A").random())
        assert actual == expected

    def test_per_peer_streams_are_independent(self):
        spec = FaultSpec(transient_rate=0.3)
        solo = make_injector(spec)
        solo.begin_round(1)
        solo_kinds = [solo.decide("A", "call") for _ in range(30)]
        interleaved = make_injector(spec)
        interleaved.begin_round(1)
        mixed_kinds = []
        for _ in range(30):
            mixed_kinds.append(interleaved.decide("A", "call"))
            interleaved.decide("B", "call")  # must not perturb A's stream
        assert solo_kinds == mixed_kinds

    def test_consecutive_error_bound(self):
        # Rate ~1: every draw would be a transient error, but the bound
        # forces a clean call after MAX_CONSECUTIVE.
        spec = FaultSpec(transient_rate=0.99)
        injector = make_injector(spec)
        injector.begin_round(1)
        kinds = [injector.decide("A", "call") for _ in range(9)]
        assert kinds == (["transient"] * MAX_CONSECUTIVE + [None]) * 3

    @pytest.mark.parametrize("method", ["call", "batch_call", "has_contract", "submit", "height"])
    def test_every_kind_fires_on_every_method(self, method):
        for kind in FAULT_KINDS:
            injector = make_injector(FaultSpec(**{f"{kind}_rate": 0.99}))
            injector.begin_round(1)
            assert injector.decide("A", method) == kind
            assert injector.trace[-1].method == method

    def test_one_draw_is_partitioned_in_kind_order(self):
        """Each call's kind is the band its uniform draw falls in:
        transient, then timeout, then latency, then a clean call."""
        injector = make_injector(FaultSpec(transient_rate=0.2, timeout_rate=0.3, latency_rate=0.4))
        injector.begin_round(1)
        replay = RngFactory(7).get("faults", "A")
        for i in range(200):
            # A fresh method per call keeps the consecutive-error bound out.
            kind = injector.decide("A", f"method{i}")
            draw = float(replay.random())
            want = "transient" if draw < 0.2 else "timeout" if draw < 0.5 else (
                "latency" if draw < 0.9 else None
            )
            assert kind == want

    @pytest.mark.parametrize("zero", FAULT_KINDS)
    def test_a_zero_rate_kind_never_fires(self, zero):
        rates = {f"{kind}_rate": 0.0 if kind == zero else 0.3 for kind in FAULT_KINDS}
        injector = make_injector(FaultSpec(**rates))
        injector.begin_round(1)
        for i in range(300):
            injector.decide("A", f"method{i % 7}")
        fired = {event.kind for event in injector.trace}
        assert fired == set(FAULT_KINDS) - {zero}

    def test_latency_ends_a_run_of_errors(self):
        """The bound counts errors in a row: a latency fault in between
        starts the count afresh, and no run outgrows the bound."""
        injector = make_injector(FaultSpec(transient_rate=0.45, latency_rate=0.45))
        injector.begin_round(1)
        kinds = [injector.decide("A", "call") for _ in range(400)]
        run = longest = 0
        for kind in kinds:
            run = run + 1 if kind in ERROR_KINDS else 0
            longest = max(longest, run)
        assert longest == MAX_CONSECUTIVE
        assert "latency" in kinds

    def test_error_runs_are_counted_per_method(self):
        injector = make_injector(FaultSpec(transient_rate=0.99))
        injector.begin_round(1)
        kinds = [injector.decide("A", method) for _ in range(3) for method in ("call", "submit")]
        # call and submit interleave; each keeps its own run of two.
        assert kinds == ["transient"] * 4 + [None] * 2

    def test_crashed_tracks_round_window(self):
        spec = FaultSpec(crash_fraction=0.5, crash_round=2)
        injector = make_injector(spec, peers=("A", "B", "C", "D"))
        assert not injector.crashed("D")  # before any round
        injector.begin_round(2)
        assert injector.crashed("D") and not injector.crashed("A")
        injector.begin_round(3)
        assert not injector.crashed("D")

    def test_end_run_goes_inert(self):
        spec = FaultSpec(transient_rate=0.99, crash_fraction=0.5, crash_round=1)
        injector = make_injector(spec, peers=("A", "B", "C", "D"))
        injector.begin_round(1)
        assert injector.crashed("D")
        assert injector.decide("A", "call") == "transient"
        injector.end_run()
        assert not injector.crashed("D")
        assert all(injector.decide("A", "call") is None for _ in range(5))


# ---------------------------------------------------------------------------
# FaultyGateway (scripted injector, stub transport)
# ---------------------------------------------------------------------------


class ScriptedInjector:
    """Duck-typed injector replaying a scripted decision sequence."""

    def __init__(self, script, spec=None, down=()):
        self.script = list(script)
        self.spec = spec if spec is not None else FaultSpec()
        self._down = set(down)

    def crashed(self, peer_id):
        return peer_id in self._down

    def decide(self, peer_id, method):
        return self.script.pop(0) if self.script else None


class StubTransport:
    """Minimal in-memory ChainGateway backend for decorator unit tests."""

    def __init__(self, simulator=None):
        self.sim = simulator if simulator is not None else Simulator()
        self.submits = []
        self.reject_next = 0
        self.value = 0

    def call(self, contract, method, **args):
        self.value += 1
        return self.value

    def submit(self, tx):
        if self.reject_next > 0:
            self.reject_next -= 1
            raise TransactionRejectedError("nonce already used")
        self.submits.append(tx)
        return tx.tx_hash

    def height(self):
        return len(self.submits)

    def now(self):
        return self.sim.now

    def wait_for(self, predicate, what, deadline=None):
        return self.now()


class FakeTx:
    def __init__(self, tx_hash="0xabc"):
        self.tx_hash = tx_hash


class RecordingInjector(ScriptedInjector):
    """Scripted injector that also records who asked about which method."""

    def __init__(self, script, down=()):
        super().__init__(script, down=down)
        self.asked = []

    def decide(self, peer_id, method):
        self.asked.append((peer_id, method))
        return super().decide(peer_id, method)


class RecordingTransport:
    """Transport answering every gateway method with its own name."""

    def __init__(self):
        self.seen = []

    def _answer(self, method):
        self.seen.append(method)
        return f"{method}-result"

    def call(self, contract, method, **args):
        return self._answer("call")

    def batch_call(self, requests):
        return self._answer("batch_call")

    def has_contract(self, address):
        return self._answer("has_contract")

    def height(self):
        return self._answer("height")

    def head_hash(self):
        return self._answer("head_hash")

    def get_logs(self, address=None, topic=None, from_block=0, to_block=None):
        return self._answer("get_logs")

    def next_nonce(self, address):
        return self._answer("next_nonce")

    def submit(self, tx):
        return self._answer("submit")


#: Each intercepted :class:`FaultyGateway` method: its stats counter and a call.
GATEWAY_OPS = {
    "call": ("calls", lambda gw: gw.call("0x1", "get", k=1)),
    "batch_call": ("batch_calls", lambda gw: gw.batch_call([])),
    "has_contract": ("contract_checks", lambda gw: gw.has_contract("0x1")),
    "height": ("height_reads", lambda gw: gw.height()),
    "head_hash": ("head_checks", lambda gw: gw.head_hash()),
    "get_logs": ("log_queries", lambda gw: gw.get_logs(topic="t")),
    "next_nonce": ("nonce_reads", lambda gw: gw.next_nonce("0x1")),
    "submit": ("submits", lambda gw: gw.submit(FakeTx())),
}


class TestFaultyGateway:
    def test_transient_raised_before_transport_effect(self):
        inner = StubTransport()
        gateway = FaultyGateway(inner, "A", ScriptedInjector(["transient"]))
        with pytest.raises(TransientGatewayError):
            gateway.submit(FakeTx())
        assert inner.submits == []  # pre-effect: the ledger never saw it
        assert gateway.stats.faults_injected == 1

    def test_timeout_is_typed(self):
        gateway = FaultyGateway(StubTransport(), "A", ScriptedInjector(["timeout"]))
        with pytest.raises(GatewayTimeoutError):
            gateway.call("0x1", "height")

    def test_latency_spike_advances_sim_clock(self):
        sim = Simulator()
        stats = NetworkStats()
        injector = ScriptedInjector(["latency"], spec=FaultSpec(latency_rate=0.1, latency_spike=4.0))
        gateway = FaultyGateway(
            StubTransport(sim), "A", injector, simulator=sim, network_stats=stats
        )
        before = sim.now
        gateway.call("0x1", "height")
        assert sim.now == pytest.approx(before + 4.0)
        assert stats.messages_delayed == 1

    def test_a_submit_is_delivered_once(self):
        inner = StubTransport()
        stats = NetworkStats()
        injector = ScriptedInjector([None, "latency"], spec=FaultSpec(latency_rate=0.1))
        gateway = FaultyGateway(inner, "A", injector, network_stats=stats)
        for tx in (FakeTx("0xa"), FakeTx("0xb")):
            assert gateway.submit(tx) == tx.tx_hash
        assert [tx.tx_hash for tx in inner.submits] == ["0xa", "0xb"]
        assert stats.messages_delayed == 1

    def test_every_read_reaches_the_transport(self):
        inner = StubTransport()
        gateway = FaultyGateway(
            inner, "A", ScriptedInjector([None, "latency", None], spec=FaultSpec(latency_rate=0.1))
        )
        values = [gateway.call("0x1", "get", k=1) for _ in range(3)]
        assert values == [1, 2, 3]  # nothing served from an earlier read
        assert gateway.stats.cache_hits == 0

    def test_crashed_peer_refuses_everything(self):
        gateway = FaultyGateway(StubTransport(), "A", ScriptedInjector([], down=("A",)))
        with pytest.raises(GatewayUnavailableError):
            gateway.height()
        with pytest.raises(GatewayUnavailableError):
            gateway.submit(FakeTx())

    @pytest.mark.parametrize("method", sorted(GATEWAY_OPS))
    def test_each_method_counts_intercepts_then_delegates(self, method):
        """Every operation counts itself, asks the injector under its own
        name, and reaches the transport only on a clean call."""
        counter, invoke = GATEWAY_OPS[method]
        inner = RecordingTransport()
        injector = RecordingInjector(["transient", None])
        gateway = FaultyGateway(inner, "A", injector)
        with pytest.raises(TransientGatewayError):
            invoke(gateway)
        assert inner.seen == []
        assert invoke(gateway) == f"{method}-result"
        assert inner.seen == [method]
        assert injector.asked == [("A", method)] * 2
        assert getattr(gateway.stats, counter) == 2
        assert gateway.stats.faults_injected == 1

    def test_a_crashed_peer_draws_no_fault(self):
        injector = RecordingInjector(["transient"], down=("A",))
        gateway = FaultyGateway(RecordingTransport(), "A", injector)
        with pytest.raises(GatewayUnavailableError):
            gateway.call("0x1", "get")
        assert injector.asked == [] and injector.script == ["transient"]
        assert gateway.stats.faults_injected == 0

    def test_clock_and_waits_are_not_intercepted(self):
        injector = RecordingInjector(["transient"])
        gateway = FaultyGateway(StubTransport(), "A", injector)
        assert gateway.now() == 0.0
        assert gateway.wait_for(lambda: True, "anything") == 0.0
        assert gateway.view_token() is None
        assert injector.asked == [] and gateway.stats.waits == 1


# ---------------------------------------------------------------------------
# ResilientGateway
# ---------------------------------------------------------------------------


class FlakyTransport(StubTransport):
    """Raises scripted errors before succeeding."""

    def __init__(self, errors=(), simulator=None):
        super().__init__(simulator)
        self.errors = list(errors)
        self.attempts = 0

    def _maybe_raise(self):
        self.attempts += 1
        if self.errors:
            raise self.errors.pop(0)

    def call(self, contract, method, **args):
        self._maybe_raise()
        return super().call(contract, method, **args)

    def submit(self, tx):
        self._maybe_raise()
        return super().submit(tx)


class TestResilientGateway:
    def test_retries_to_success_with_accounted_backoff(self):
        inner = FlakyTransport([TransientGatewayError("x"), GatewayTimeoutError("y")])
        gateway = ResilientGateway(inner, RetryPolicy(backoff_base=0.5))
        assert gateway.call("0x1", "get") == 1
        assert inner.attempts == 3
        assert gateway.stats.retries == 2
        assert gateway.stats.deadline_misses == 1
        assert gateway.stats.backoff_seconds == pytest.approx(0.5 + 1.0)
        # Backoff is budget accounting, never simulated time.
        assert inner.now() == 0.0

    def test_gives_up_after_max_attempts(self):
        inner = FlakyTransport([TransientGatewayError("x")] * 10)
        gateway = ResilientGateway(inner, RetryPolicy(max_attempts=3))
        with pytest.raises(GatewayUnavailableError):
            gateway.call("0x1", "get")
        assert inner.attempts == 3
        assert gateway.stats.gave_up == 1

    def test_budget_exhaustion_gives_up_early(self):
        inner = FlakyTransport([TransientGatewayError("x")] * 10)
        policy = RetryPolicy(max_attempts=8, backoff_base=2.0, read_budget=3.0)
        gateway = ResilientGateway(inner, policy)
        with pytest.raises(GatewayUnavailableError):
            gateway.call("0x1", "get")
        # First backoff (2.0) fits the 3.0 budget, the second (4.0) does not.
        assert inner.attempts == 2

    def test_non_retryable_errors_pass_through(self):
        inner = FlakyTransport([TransactionRejectedError("bad nonce")])
        gateway = ResilientGateway(inner)
        with pytest.raises(TransactionRejectedError):
            gateway.submit(FakeTx())
        assert inner.attempts == 1

    def test_submit_is_idempotent_after_ack(self):
        inner = FlakyTransport()
        gateway = ResilientGateway(inner)
        tx = FakeTx()
        gateway.submit(tx)
        gateway.submit(tx)
        assert len(inner.submits) == 1
        assert gateway.stats.deduped_submits == 1

    def test_rejection_after_ambiguous_failure_counts_as_applied(self):
        # Attempt 1 times out (ambiguously — it may have landed), the
        # retry is rejected because the nonce was consumed: success.
        inner = FlakyTransport([GatewayTimeoutError("maybe landed")])
        inner.reject_next = 1
        gateway = ResilientGateway(inner)
        tx = FakeTx()
        assert gateway.submit(tx) == tx.tx_hash
        assert gateway.stats.deduped_submits == 1
        assert gateway.stats.gave_up == 0

    def test_breaker_trips_and_cools_down(self):
        sim = Simulator()
        inner = FlakyTransport([TransientGatewayError("x")] * 100, simulator=sim)
        policy = RetryPolicy(
            max_attempts=2, breaker_threshold=1, breaker_cooldown=60.0
        )
        gateway = ResilientGateway(inner, policy)
        with pytest.raises(GatewayUnavailableError):
            gateway.call("0x1", "get")
        attempts_after_trip = inner.attempts
        # Circuit open: refused without touching the transport.
        with pytest.raises(GatewayUnavailableError):
            gateway.call("0x1", "get")
        assert inner.attempts == attempts_after_trip
        # Past cooldown the half-open probe goes through and succeeds.
        sim.schedule_at(61.0, lambda: None)
        sim.run()
        inner.errors = []
        assert gateway.call("0x1", "get") == 1
        assert gateway._tripped_at is None  # breaker closed again

    def test_half_open_probe_failure_retrips(self):
        sim = Simulator()
        inner = FlakyTransport([TransientGatewayError("x")] * 100, simulator=sim)
        policy = RetryPolicy(
            max_attempts=2, breaker_threshold=1, breaker_cooldown=60.0
        )
        gateway = ResilientGateway(inner, policy)
        with pytest.raises(GatewayUnavailableError):
            gateway.call("0x1", "get")
        sim.schedule_at(61.0, lambda: None)
        sim.run()
        with pytest.raises(GatewayUnavailableError):
            gateway.call("0x1", "get")  # probe fails -> re-tripped from now
        before = inner.attempts
        with pytest.raises(GatewayUnavailableError):
            gateway.call("0x1", "get")
        assert inner.attempts == before  # open again, transport untouched

    def test_wait_for_passes_through(self):
        inner = FlakyTransport()
        gateway = ResilientGateway(inner)
        gateway.wait_for(lambda: True, "anything")
        assert gateway.stats.waits == 1


# ---------------------------------------------------------------------------
# End-to-end: driver under faults
# ---------------------------------------------------------------------------


def easy_dataset(rng, n=100):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y)


def shared_builder(rng):
    return Sequential([Dense(6, name="h"), ReLU(), Dense(2, name="out")]).build(
        np.random.default_rng(42), (4,)
    )


def make_driver(rounds=2, peers=("A", "B", "C"), **config_kwargs):
    data_rng = np.random.default_rng(0)
    config = DecentralizedConfig(rounds=rounds, **config_kwargs)
    peer_configs = [
        PeerConfig(
            peer_id=p,
            train_config=TrainConfig(epochs=1, learning_rate=0.1),
            training_time=10.0,
            training_time_jitter=2.0,
        )
        for p in peers
    ]
    return DecentralizedFL(
        peer_configs,
        {p: easy_dataset(data_rng) for p in peers},
        {p: easy_dataset(data_rng, n=60) for p in peers},
        shared_builder,
        config,
        rng_factory=RngFactory(7),
    )


def run_fingerprints(driver):
    driver.run()
    return {
        peer_id: weights_fingerprint(peer.client.model.get_weights())
        for peer_id, peer in driver.peers.items()
    }


TRANSIENT_FAULTS = FaultSpec(transient_rate=0.15, timeout_rate=0.05)


class TestDriverByteEquivalence:
    def test_transient_plan_changes_nothing(self):
        """The acceptance criterion: transient faults + resilience leave
        final weights, reputation scores, and chain heights identical to
        the faults-disabled run."""
        faulty = make_driver(rounds=2, faults=TRANSIENT_FAULTS, enable_reputation=True)
        clean = make_driver(rounds=2, enable_reputation=True)
        faulty_weights = run_fingerprints(faulty)
        clean_weights = run_fingerprints(clean)
        assert faulty_weights == clean_weights
        assert faulty.reputation_scores() == clean.reputation_scores()
        assert faulty.chain_stats()["heights"] == clean.chain_stats()["heights"]
        assert faulty.abort_reason == ""
        assert faulty.completed_rounds == clean.completed_rounds == 2
        # The faults were real (injected and absorbed), not vacuous.
        stats = faulty.gateway_stats()["resilience"]
        assert stats["faults_injected"] > 0
        assert stats["retries"] > 0
        assert stats["gave_up"] == 0

    def test_fault_trace_is_reproducible(self):
        first = make_driver(rounds=2, faults=TRANSIENT_FAULTS)
        second = make_driver(rounds=2, faults=TRANSIENT_FAULTS)
        first.run()
        second.run()
        assert first.fault_injector.trace == second.fault_injector.trace
        assert first.fault_injector.trace

    def test_lossy_scenario_trace_is_pinned(self, monkeypatch):
        """The fault schedule of ``run faults/lossy --quick --seed 1`` is
        pinned: ``(seq, peer, method, kind)`` of every injected fault,
        hashed.  It follows from the named ``faults/<peer>`` streams and
        the simulated clock alone, so the pin holds on any platform; a
        change to the kinds' band order or to which calls draw moves it."""
        injectors = []

        class Recording(FaultInjector):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                injectors.append(self)

        monkeypatch.setattr("repro.core.decentralized.FaultInjector", Recording)
        (spec,) = get_scenario("faults/lossy").build(seed=1, quick=True)
        run_scenario(spec)
        (injector,) = injectors
        rows = [(e.seq, e.peer_id, e.method, e.kind) for e in injector.trace]
        assert len(rows) == 21
        assert {kind for *_, kind in rows} == {"latency", "transient"}
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "1e842ca7d0ca96fe620f870a9102d2448aff71892f639d92a2e0bd5c7f264723"

    def test_batching_backend_composes_with_faults(self):
        faulty = make_driver(
            rounds=2, faults=TRANSIENT_FAULTS, chain=ChainSpec(gateway="batching")
        )
        clean = make_driver(rounds=2, chain=ChainSpec(gateway="batching"))
        assert run_fingerprints(faulty) == run_fingerprints(clean)
        assert faulty.abort_reason == ""

    def test_unshielded_faults_abort_instead_of_raising(self):
        spec = FaultSpec(transient_rate=0.25, timeout_rate=0.1, resilience=False)
        driver = make_driver(rounds=2, faults=spec)
        logs = driver.run()
        assert driver.abort_reason != ""
        assert driver.completed_rounds < 2
        assert logs is driver.round_logs  # partial logs still returned


class TestCrashDegradation:
    CRASH = FaultSpec(crash_fraction=0.25, crash_round=2, crash_rounds=1)

    def test_quorum_round_proceeds_without_crashed_peer(self):
        driver = make_driver(rounds=3, peers=("A", "B", "C", "D"), faults=self.CRASH)
        driver.run()
        assert driver.abort_reason == ""
        assert driver.completed_rounds == 3
        assert driver.fault_plan.crashed_peers == ("D",)
        round2_logs = [log for log in driver.round_logs if log.round_id == 2]
        assert sorted(log.peer_id for log in round2_logs) == ["A", "B", "C"]
        round3_logs = [log for log in driver.round_logs if log.round_id == 3]
        assert sorted(log.peer_id for log in round3_logs) == ["A", "B", "C", "D"]

    def test_rejoining_peer_catches_up(self):
        driver = make_driver(rounds=3, peers=("A", "B", "C", "D"), faults=self.CRASH)
        driver.run()
        assert [entry["peer"] for entry in driver.catch_ups] == ["D"]
        assert driver.catch_ups[0]["round"] == 3
        assert driver.catch_ups[0]["models"] > 0
        heights = driver.chain_stats()["heights"]
        assert heights["D"] == heights["A"]  # chain caught up via sync

    def test_crash_window_reaching_final_round_still_finalizes(self):
        spec = FaultSpec(crash_fraction=0.25, crash_round=2, crash_rounds=5)
        driver = make_driver(rounds=3, peers=("A", "B", "C", "D"), faults=spec)
        driver.run()
        assert driver.abort_reason == ""
        assert driver.completed_rounds == 3
        heights = driver.chain_stats()["heights"]
        assert heights["D"] == heights["A"]  # rejoined during finalization
        assert [entry["peer"] for entry in driver.catch_ups] == ["D"]

    def test_faults_block_in_chain_stats(self):
        driver = make_driver(rounds=3, peers=("A", "B", "C", "D"), faults=self.CRASH)
        driver.run()
        block = driver.chain_stats()["faults"]
        assert block["crashed_peers"] == ["D"]
        assert block["completed_rounds"] == 3
        assert block["catch_ups"] == 1
        assert block["abort_reason"] == ""


# ---------------------------------------------------------------------------
# Satellites: network streams, stats keys, spec threading
# ---------------------------------------------------------------------------


class TestNetworkDropStream:
    def test_drop_decisions_use_dedicated_stream(self):
        from repro.chain.pow import ProofOfWork

        def build(drop_rate):
            sim = Simulator()
            return P2PNetwork(
                sim,
                ProofOfWork(np.random.default_rng(1)),
                rng=np.random.default_rng(5),
                drop_rate=drop_rate,
                drop_rng=np.random.default_rng(11),
            )

        lossy = build(0.5)
        draws = [lossy._should_drop() for _ in range(20)]
        expected_rng = np.random.default_rng(11)
        assert draws == [float(expected_rng.random()) < 0.5 for _ in range(20)]
        # The latency stream was never consumed by drop decisions.
        assert float(lossy.rng.random()) == float(np.random.default_rng(5).random())

    def test_zero_drop_rate_draws_nothing(self):
        from repro.chain.pow import ProofOfWork

        sim = Simulator()
        network = P2PNetwork(
            sim,
            ProofOfWork(np.random.default_rng(1)),
            drop_rate=0.0,
            drop_rng=np.random.default_rng(11),
        )
        assert not any(network._should_drop() for _ in range(10))
        assert float(network.drop_rng.random()) == float(
            np.random.default_rng(11).random()
        )

    def test_network_stats_dict_has_fault_counters(self):
        payload = NetworkStats().as_dict()
        assert payload["messages_dropped"] == 0
        assert payload["messages_delayed"] == 0


class TestSpecThreading:
    def test_chain_spec_drop_rate_validated(self):
        with pytest.raises(ConfigError):
            ChainSpec(drop_rate=1.0)
        assert ChainSpec(drop_rate=0.3).drop_rate == 0.3

    def test_fault_scenario_threads_the_axes(self):
        spec = fault_scenario(
            "x", FaultSpec(transient_rate=0.1), seed=3, drop_rate=0.2
        )
        assert spec.faults.transient_rate == 0.1
        assert spec.chain.drop_rate == 0.2

    def test_a_crash_after_the_last_round_is_rejected(self):
        with pytest.raises(ConfigError, match="crash_round 5"):
            ScenarioSpec(rounds=2, faults=FaultSpec(crash_fraction=0.4, crash_round=5))
        # The last round may crash, and the window may run past it.
        ScenarioSpec(
            rounds=2, faults=FaultSpec(crash_fraction=0.4, crash_round=2, crash_rounds=3)
        )
        # With nothing to crash the window is never read.
        ScenarioSpec(rounds=1, faults=FaultSpec(crash_round=5))

    def test_a_hand_built_driver_rejects_a_crash_after_the_last_round(self):
        with pytest.raises(ConfigError, match="crash_round 5"):
            DecentralizedConfig(rounds=2, faults=FaultSpec(crash_fraction=0.4, crash_round=5))
        DecentralizedConfig(rounds=2, faults=FaultSpec(crash_fraction=0.4, crash_round=2))

    def test_vanilla_scenarios_reject_faults(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(kind="vanilla", faults=FaultSpec(transient_rate=0.1))

    def test_driver_drop_rate_validated(self):
        with pytest.raises(ConfigError):
            DecentralizedConfig(chain=ChainSpec(drop_rate=1.0))
        assert make_driver(chain=ChainSpec(drop_rate=0.3)).network.drop_rate == 0.3
