"""The driver's chain-view waits re-read a peer only after its head moved.

Deployment, registration, quorum and finalization waits read each peer's
view through ``DecentralizedFL._views`` (asked again only once the peer's
gateway ``view_token`` moved) and skip, in ``_wait_views``, any event that
moved no head and no submission.  Nothing here may change a result: forcing
every wait back to re-reading every peer after every event — the run's
``HeadMoves`` always "moved", or no stack with a view token — must give
the same clock marks and model bytes, and a round's reads are bounded by
what can change an answer.
"""

from dataclasses import replace

import pytest

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
    "faults": FaultSpec(
        transient_rate=0.05,
        timeout_rate=0.02,
        latency_rate=0.1,
        duplicate_rate=0.05,
        stale_read_rate=0.1,
    ),
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


def force_every_read(monkeypatch, how: str) -> None:
    if how == "counter-always-moved":
        monkeypatch.setattr(decentralized, "HeadMoves", AlwaysMoved)
    else:
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


@pytest.mark.parametrize("how", ["counter-always-moved", "no-view-tokens"])
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
        # The gate is open, but each peer is still re-read only when its
        # own token moved.
        assert gated_reads == forced_reads


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
