"""The driver's chain-view waits re-read a peer only after its head moved.

Deployment, registration, quorum and finalization waits read each peer's
view through ``DecentralizedFL._views`` (asked again only once the peer's
gateway ``view_token`` moved), skip, in ``_wait_views``, any event that
moved no head and no submission, and at an event that did, ask only the
peers in its wake set: those whose node moved (``HeadMoves.drain``) or
whose own submission or drop is new.  Nothing here may change a result:
forcing every wait back to asking every peer after every event — the
run's ``HeadMoves`` always "moved", every peer woken, or no stack with a
view token — must give the same clock marks and model bytes, and a
round's reads and policy questions are bounded by what can change an
answer.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.decentralized as decentralized
from repro.chain.chainstore import HeadMoves
from repro.chain.gateway import InProcessGateway
from repro.core.decentralized import DecentralizedFL
from repro.core.peer import FullPeer
from repro.faults import FaultSpec
from repro.fl.async_policy import Deadline, WaitForAll, WaitForK
from repro.scenarios import cohort_scenario, run_scenario
from repro.scenarios.runner import ScenarioContext, decentralized_inputs
from repro.utils.rng import RngFactory
from test_core_decentralized import make_driver

POLICIES = {"wait-for-all": WaitForAll(), "wait-for-1": WaitForK(1), "deadline": Deadline(70.0)}

FAULTS = {
    "fault-free": FaultSpec(),
    "faults": FaultSpec(transient_rate=0.05, timeout_rate=0.02, latency_rate=0.1),
}


class AlwaysMoved(HeadMoves):
    """A head-move counter that reads as "moved" every time it is read."""

    @property
    def count(self) -> int:
        self._reads = getattr(self, "_reads", 0) + 1
        return self._reads

    @count.setter
    def count(self, value: int) -> None:
        pass


def wake_everyone(monkeypatch) -> None:
    """Every gated wait asks every peer, as if all of them had moved."""
    wait_views = DecentralizedFL._wait_views

    def waking_everyone(self, predicate, what, **kwargs):
        return wait_views(self, lambda woken: predicate(None), what, **kwargs)

    monkeypatch.setattr(DecentralizedFL, "_wait_views", waking_everyone)


#: How a forced run asks its views: after every event with per-peer wake
#: sets; after any move, of every peer; after every event, of every peer
#: (the every-event path, reads still answered from unmoved tokens); or
#: with no view tokens at all, so every ask is a read.
FORCED = ("counter-always-moved", "every-peer-woken", "every-event", "no-view-tokens")


def force_every_read(monkeypatch, how: str) -> None:
    if how in ("counter-always-moved", "every-event"):
        monkeypatch.setattr(decentralized, "HeadMoves", AlwaysMoved)
    if how in ("every-peer-woken", "every-event"):
        wake_everyone(monkeypatch)
    if how == "no-view-tokens":
        monkeypatch.setattr(InProcessGateway, "view_token", lambda self: None)


def small_spec(policy: str, faults: str):
    return replace(cohort_scenario(4).quick(), policy=POLICIES[policy], faults=FAULTS[faults])


def clock_marks(result) -> list:
    return [
        (log.peer_id, log.round_id, log.submitted_at, log.ready_at, log.aggregated_at)
        for log in result.round_logs
    ]


@pytest.fixture(scope="module")
def gated_run():
    """``(policy, faults) -> result`` of the run with its waits as they
    are, each run once for the module."""
    runs: dict = {}

    def run(policy: str, faults: str):
        if (policy, faults) not in runs:
            runs[policy, faults] = run_scenario(small_spec(policy, faults))
        return runs[policy, faults]

    return run


@pytest.mark.parametrize("how", FORCED)
@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_skipped_reads_change_no_result(monkeypatch, gated_run, policy, faults, how):
    gated = gated_run(policy, faults)
    force_every_read(monkeypatch, how)
    forced = run_scenario(small_spec(policy, faults))
    assert clock_marks(forced) == clock_marks(gated)
    assert forced.model_digests == gated.model_digests
    assert (forced.completed_rounds, forced.abort_reason) == (
        gated.completed_rounds,
        gated.abort_reason,
    )
    forced_reads = forced.chain_stats["gateway"]["requested"]["requested_reads"]
    gated_reads = gated.chain_stats["gateway"]["requested"]["requested_reads"]
    if faults == "faults":
        # No fault stack has a view token: it is polled after every event,
        # the injector draws the same faults, and every counter is equal.
        assert forced.chain_stats == gated.chain_stats
    elif how == "no-view-tokens":
        assert gated_reads < forced_reads
    else:
        # However often a peer is asked, it is re-read only when its own
        # token moved: the same reads, at the same instants, in the same
        # order, so every counter of the run is the same.
        assert gated_reads == forced_reads
        assert forced.chain_stats == gated.chain_stats


def test_deadline_fires_before_every_submission_is_in(gated_run):
    """The deadline case above is not wait-for-all in disguise."""
    logs = [log for log in gated_run("deadline", "fault-free").round_logs if log.round_id == 1]
    assert min(log.ready_at for log in logs) < max(log.submitted_at for log in logs)


def test_a_clock_reading_policy_is_asked_at_an_event_that_moved_nothing():
    """``Deadline`` reads the clock, so its wait runs after every event —
    here a bare timer just past the deadline, which moves no head and no
    submission — and fires there, not at the next block."""
    driver = make_driver(policy=Deadline(100.0), rounds=1, training_times=[10.0, 10.0, 200.0])
    driver.deploy_contracts()
    timer = driver.sim.now + 100.0 + 1e-3
    driver.sim.schedule_at(timer, lambda: None, label="timer")
    ready = {log.peer_id: log.ready_at for log in driver.run_round(1)}
    assert ready["A"] == ready["B"] == timer < ready["C"]


def test_a_round_reads_views_at_most_once_per_head_move_submission_and_fetch(monkeypatch):
    spec = cohort_scenario(6).quick()
    reads = []
    visible_submissions = FullPeer.visible_submissions

    def counted(self, round_id):
        reads.append(self.peer_id)
        return visible_submissions(self, round_id)

    monkeypatch.setattr(FullPeer, "visible_submissions", counted)
    rngs = RngFactory(spec.seed)
    with ScenarioContext() as ctx:
        inputs = decentralized_inputs(spec, rngs, ctx)
        driver = DecentralizedFL(
            inputs.peer_configs,
            inputs.train_sets,
            inputs.test_sets,
            model_builder=inputs.model_builder,
            config=inputs.config,
            rng_factory=rngs.spawn("chain"),
        )
        driver.deploy_contracts()
        for round_id in range(1, spec.rounds + 1):
            reads.clear()
            moves = driver.head_moves.count
            logs = driver.run_round(round_id)
            assert len(logs) == 6
            submissions = views = len(logs)
            bound = (driver.head_moves.count - moves) + submissions + views
            assert 0 < len(reads) <= bound


class CountingWaitForAll(WaitForAll):
    """Wait-for-all that counts how often it is asked."""

    asked = 0

    def ready(self, submitted: int, expected: int, elapsed: float) -> bool:
        type(self).asked += 1
        return super().ready(submitted, expected, elapsed)


def seven_peer_driver(rngs: RngFactory, ctx: ScenarioContext) -> DecentralizedFL:
    spec = replace(cohort_scenario(7).quick(), policy=CountingWaitForAll())
    inputs = decentralized_inputs(spec, rngs, ctx)
    return DecentralizedFL(
        inputs.peer_configs,
        inputs.train_sets,
        inputs.test_sets,
        model_builder=inputs.model_builder,
        config=inputs.config,
        rng_factory=rngs.spawn("chain"),
    )


def run_seven_peers(rounds: int) -> tuple[DecentralizedFL, list[tuple[int, int, int]]]:
    """A quick 7-peer cohort; per round, ``(policy questions, head moves,
    submissions + drops)``."""
    counts = []
    with ScenarioContext() as ctx:
        driver = seven_peer_driver(RngFactory(cohort_scenario(7).seed), ctx)
        driver.deploy_contracts()
        for round_id in range(1, rounds + 1):
            CountingWaitForAll.asked = 0
            moves = driver.head_moves.count
            logs = driver.run_round(round_id)
            assert len(logs) == 7
            # Fault-free: the marks that move are the seven submissions.
            counts.append((CountingWaitForAll.asked, driver.head_moves.count - moves, len(logs)))
    return driver, counts


def test_a_quorum_asks_its_policy_once_per_head_move_or_mark_move():
    """Per-peer wake sets: a peer's policy question is asked again only
    when its own node moved or its own submission landed, never because
    some other peer's head moved."""
    _, counts = run_seven_peers(rounds=2)
    for asked, moves, marks in counts:
        assert 0 < asked <= moves + marks


def test_per_peer_wake_sets_read_what_the_every_event_path_reads(monkeypatch):
    """The 7-peer cohort's gateway counters — every read, byte and call —
    equal those of the run whose waits ask every peer after every event,
    while that run asks its policy far more often."""
    gated, gated_counts = run_seven_peers(rounds=2)
    force_every_read(monkeypatch, "every-event")
    forced, forced_counts = run_seven_peers(rounds=2)
    assert forced.chain_stats() == gated.chain_stats()
    assert forced.model_digests() == gated.model_digests()
    assert sum(asked for asked, _, _ in gated_counts) < sum(
        asked for asked, _, _ in forced_counts
    )


class TokenGateway:
    """A view token the test moves by hand."""

    def __init__(self) -> None:
        self.token = 0

    def view_token(self) -> str:
        return str(self.token)


@st.composite
def view_histories(draw):
    """A cohort size and, per step, the peers whose view moved and what
    each now answers (a view can turn false again, as on a reorg)."""
    size = draw(st.integers(min_value=1, max_value=6))
    steps = draw(
        st.lists(
            st.dictionaries(st.integers(0, size - 1), st.booleans(), max_size=size),
            max_size=12,
        )
    )
    return size, steps


@settings(max_examples=200, deadline=None)
@given(view_histories())
def test_the_conjunction_asks_what_a_short_circuiting_all_asks(history):
    """``_all_views`` woken per step reads the same views, in the same
    order, and answers the same as ``all()`` over every peer each step."""
    size, steps = history
    runs = []
    for woken_only in (False, True):
        peers = [
            SimpleNamespace(peer_id=f"p{index}", gateway=TokenGateway(), answer=False)
            for index in range(size)
        ]
        reads: list = []

        def read(peer):
            reads.append(peer.peer_id)
            return peer.answer

        view = DecentralizedFL._views(None, read)
        holds = DecentralizedFL._all_views(peers, view)
        answers = []
        for step, moves in enumerate([{}] + steps):
            for index, answer in moves.items():
                peers[index].gateway.token += 1
                peers[index].answer = answer
            if woken_only:
                woken = None if step == 0 else {peers[index].peer_id for index in moves}
                answers.append(holds(woken))
            else:
                answers.append(all(view(peer) for peer in peers))
        runs.append((answers, reads))
    assert runs[0] == runs[1]
