"""Client sampling & churn: the participation axis.

Cross-device FL registers far more clients than any round trains; the
participation axis samples a k-peer subcohort per round, takes peers
offline through availability windows and churn, and catches rejoiners
back up — all from dedicated deterministic rng streams so the schedule
is a pure function of (spec, roster, rounds, seed).  These tests pin the
axis end-to-end: spec validation, plan determinism, subcohort-bounded
work (training, quorum, votes, reputation), rejoin catch-up against the
last *finished* round, and the byte-identity escape hatches
(``sampled_k = n`` == full participation; fault-only runs untouched).
"""

import re

import numpy as np
import pytest

from repro.core.decentralized import (
    REPUTATION_INITIAL_SCORE,
    DecentralizedConfig,
    DecentralizedFL,
)
from repro.core.participation import ParticipationPlan, ParticipationSpec
from repro.core.peer import PeerConfig
from repro.data.dataset import Dataset
from repro.errors import ConfigError, RoundError
from repro.faults import FaultSpec
from repro.fl.trainer import TrainConfig
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.scenarios import ScenarioContext, get_scenario, run_scenario
from repro.scenarios.registry import cohort_scenario
from repro.scenarios.spec import CohortSpec, ScenarioSpec, replace_axis
from repro.fl.scoring import weights_fingerprint
from repro.utils.rng import RngFactory


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


class TestParticipationSpec:
    def test_defaults_are_disengaged(self):
        spec = ParticipationSpec()
        assert not spec.engaged
        assert not spec.has_absences

    def test_sampled_k_floor(self):
        with pytest.raises(ConfigError):
            ParticipationSpec(sampled_k=1)

    def test_churn_rate_range(self):
        with pytest.raises(ConfigError):
            ParticipationSpec(churn_rate=1.0)
        with pytest.raises(ConfigError):
            ParticipationSpec(churn_rate=-0.1)

    def test_window_rejects_head_peer(self):
        with pytest.raises(ConfigError):
            ParticipationSpec(windows=((0, 1, 1),))

    def test_window_shape_validated(self):
        with pytest.raises(ConfigError):
            ParticipationSpec(windows=((1, 0, 1),))  # rounds are 1-based
        with pytest.raises(ConfigError):
            ParticipationSpec(windows=((1, 1, 0),))  # empty window

    def test_windows_normalized_to_sorted_tuples(self):
        spec = ParticipationSpec(windows=[[3, 2, 1], [1, 1, 2]])
        assert spec.windows == ((1, 1, 2), (3, 2, 1))

    def test_engagement_flags(self):
        assert ParticipationSpec(sampled_k=3).engaged
        assert not ParticipationSpec(sampled_k=3).has_absences
        assert ParticipationSpec(churn_rate=0.1).has_absences
        assert ParticipationSpec(windows=((1, 1, 1),)).has_absences

    def test_spec_is_hashable(self):
        """Participation rides in dataset-memo key tuples — must hash."""
        spec = ParticipationSpec(sampled_k=3, windows=((1, 1, 1),))
        assert hash(spec) == hash(ParticipationSpec(sampled_k=3, windows=((1, 1, 1),)))

    def test_vanilla_scenario_rejects_participation(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(kind="vanilla", participation=ParticipationSpec(sampled_k=2))

    def test_sampled_k_bounded_by_cohort(self):
        spec = cohort_scenario(5)
        with pytest.raises(ConfigError):
            replace_axis(spec, "participation.sampled_k", 6)

    def test_window_index_bounded_by_cohort(self):
        spec = cohort_scenario(5)
        with pytest.raises(ConfigError):
            replace_axis(spec, "participation.windows", ((5, 1, 1),))

    def test_a_window_after_the_last_round_is_rejected(self):
        """A window opening after the last round never takes its peer offline."""
        late = ParticipationSpec(windows=((1, 5, 1),))
        with pytest.raises(ConfigError, match="opens at round 5, after the last round 2"):
            ScenarioSpec(rounds=2, cohort=CohortSpec(size=4), participation=late)
        with pytest.raises(ConfigError, match="opens at round 5, after the last round 2"):
            DecentralizedConfig(rounds=2, participation=late)
        # The last round may open a window, and the window may run past it.
        DecentralizedConfig(rounds=2, participation=ParticipationSpec(windows=((1, 2, 3),)))


class TestRegistryNames:
    def test_sampled_name_resolves(self):
        definition = get_scenario("cohort/10/sampled/4")
        (spec,) = definition.build()
        assert spec.participation.sampled_k == 4
        assert spec.cohort.size == 10
        assert spec.name == "cohort/10/sampled/4"

    def test_sampled_k_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            get_scenario("cohort/10/sampled/1")
        with pytest.raises(ConfigError):
            get_scenario("cohort/10/sampled/11")

    def test_plain_cohort_name_still_full_participation(self):
        (spec,) = get_scenario("cohort/10").build()
        assert not spec.participation.engaged


# ---------------------------------------------------------------------------
# Plan determinism
# ---------------------------------------------------------------------------


PEERS_20 = tuple(f"P{i:02d}" for i in range(20))


def build_plan(spec, peers=PEERS_20, rounds=4, seed=42):
    return ParticipationPlan(spec, list(peers), rounds, RngFactory(seed).spawn("chain"))


class TestParticipationPlan:
    def test_rebuild_is_identical(self):
        spec = ParticipationSpec(sampled_k=5, churn_rate=0.2)
        first = build_plan(spec)
        second = build_plan(spec)
        for round_id in range(1, 5):
            assert first.active(round_id) == second.active(round_id)
            assert first.offline(round_id) == second.offline(round_id)
        assert first.ever_active == second.ever_active

    def test_rounds_draw_independent_streams(self):
        plan = build_plan(ParticipationSpec(sampled_k=5), rounds=6)
        assert len({plan.active(r) for r in range(1, 7)}) > 1

    def test_full_plan_selects_everyone(self):
        plan = build_plan(ParticipationSpec())
        assert not plan.engaged
        for round_id in range(1, 5):
            assert plan.active(round_id) == PEERS_20
            assert plan.offline(round_id) == frozenset()
        assert plan.ever_active == frozenset(PEERS_20)

    def test_k_equals_n_plan_matches_full(self):
        full = build_plan(ParticipationSpec())
        saturated = build_plan(ParticipationSpec(sampled_k=len(PEERS_20)))
        for round_id in range(1, 5):
            assert saturated.active(round_id) == full.active(round_id)

    def test_active_preserves_cohort_order(self):
        plan = build_plan(ParticipationSpec(sampled_k=7))
        for round_id in range(1, 5):
            active = plan.active(round_id)
            assert list(active) == [p for p in PEERS_20 if p in set(active)]

    def test_head_peer_survives_heavy_churn(self):
        plan = build_plan(ParticipationSpec(churn_rate=0.9), rounds=8)
        for round_id in range(1, 9):
            assert PEERS_20[0] not in plan.offline(round_id)

    def test_sampled_k_bounded_by_roster(self):
        with pytest.raises(ConfigError):
            build_plan(ParticipationSpec(sampled_k=21))

    def test_window_takes_peer_offline_for_exact_rounds(self):
        plan = build_plan(ParticipationSpec(windows=((3, 2, 2),)))
        target = PEERS_20[3]
        assert target not in plan.offline(1)
        assert target in plan.offline(2)
        assert target in plan.offline(3)
        assert target not in plan.offline(4)


# ---------------------------------------------------------------------------
# Driver under sampling
# ---------------------------------------------------------------------------


def easy_dataset(rng, n=80):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y)


def shared_builder(rng):
    return Sequential([Dense(6, name="h"), ReLU(), Dense(2, name="out")]).build(
        np.random.default_rng(42), (4,)
    )


def make_driver(rounds=2, peers=("A", "B", "C", "D", "E", "F"), **config_kwargs):
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
        {p: easy_dataset(data_rng, n=50) for p in peers},
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


SAMPLED_3 = ParticipationSpec(sampled_k=3)


class TestSampledDriver:
    def test_rounds_train_exactly_the_sampled_subcohort(self):
        driver = make_driver(rounds=2, participation=SAMPLED_3)
        driver.run()
        assert driver.abort_reason == ""
        assert driver.completed_rounds == 2
        for round_id in (1, 2):
            logged = sorted(
                log.peer_id for log in driver.round_logs if log.round_id == round_id
            )
            assert logged == sorted(driver.participation.active(round_id))
            assert len(logged) == 3

    def test_only_ever_active_peers_instantiated(self):
        driver = make_driver(rounds=2, participation=SAMPLED_3)
        driver.run()
        assert set(driver.peers) == driver.participation.ever_active
        assert set(driver.model_digests()) == set(driver.peers)

    def test_uninstantiated_peers_still_registered_on_chain(self):
        """The roster lives on-chain even for peers that never train."""
        driver = make_driver(rounds=2, participation=SAMPLED_3)
        driver.run()
        assert len(driver.peers) < len(driver.peer_ids)
        head = driver.peers[driver.peer_ids[0]]
        registry = driver._registry_address()
        assert driver._is_registered(head, registry, driver._membership_reads(registry))

    def test_round_quorum_and_votes_track_subcohort(self):
        """On-chain round records are quorate over the selected subcohort."""
        driver = make_driver(rounds=2, participation=SAMPLED_3, mode="global_vote")
        driver.run()
        head = driver.peers[driver.peer_ids[0]]
        for round_id in (1, 2):
            active = driver.participation.active(round_id)
            record = head.gateway.call(
                head.coordinator_address, "round_info", round_id=round_id
            )
            assert record["quorum"] == len(active)
            assert record["vote_threshold"] == len(active) // 2 + 1
            tally = head.gateway.call(
                head.coordinator_address, "vote_tally", round_id=round_id
            )
            assert sum(tally.values()) == len(active)

    def test_reputation_ignores_nonparticipants(self):
        """Rating passes run over the round's subcohort, never the roster."""
        driver = make_driver(rounds=2, participation=SAMPLED_3, enable_reputation=True)
        driver.run()
        scores = driver.reputation_scores()
        assert set(scores) == set(driver.peer_ids)
        ever = driver.participation.ever_active
        for peer_id in driver.peer_ids:
            if peer_id not in ever:
                assert scores[peer_id] == REPUTATION_INITIAL_SCORE
        rated = {p for p in ever if scores[p] != REPUTATION_INITIAL_SCORE}
        assert rated, "sampled participants were never rated"

    def test_k_equals_n_is_byte_identical_to_full(self):
        sampled = make_driver(rounds=2, participation=ParticipationSpec(sampled_k=6))
        full = make_driver(rounds=2)
        assert run_fingerprints(sampled) == run_fingerprints(full)
        assert sampled.chain_stats()["heights"] == full.chain_stats()["heights"]

    def test_participation_block_in_chain_stats(self):
        driver = make_driver(rounds=2, participation=SAMPLED_3)
        driver.run()
        block = driver.chain_stats()["participation"]
        assert block["registered"] == 6
        assert block["instantiated"] == len(driver.peers)
        assert block["skipped_rounds"] == []
        assert block["last_finished_round"] == 2

    def test_full_run_has_no_participation_block(self):
        driver = make_driver(rounds=2)
        driver.run()
        assert "participation" not in driver.chain_stats()


class TestChurnAndWindows:
    def test_window_peer_skips_round_and_catches_up(self):
        spec = ParticipationSpec(windows=((2, 2, 1),))  # peer "C" misses round 2
        driver = make_driver(rounds=3, peers=("A", "B", "C", "D"), participation=spec)
        driver.run()
        assert driver.abort_reason == ""
        assert driver.completed_rounds == 3
        round2 = sorted(log.peer_id for log in driver.round_logs if log.round_id == 2)
        assert round2 == ["A", "B", "D"]
        round3 = sorted(log.peer_id for log in driver.round_logs if log.round_id == 3)
        assert round3 == ["A", "B", "C", "D"]
        assert [entry["peer"] for entry in driver.catch_ups] == ["C"]
        assert driver.catch_ups[0]["round"] == 3
        assert driver.catch_ups[0]["models"] > 0
        heights = driver.chain_stats()["heights"]
        assert heights["C"] == heights["A"]

    def test_churn_trace_is_reproducible(self):
        spec = ParticipationSpec(churn_rate=0.3)
        first = make_driver(rounds=3, participation=spec)
        second = make_driver(rounds=3, participation=spec)
        assert run_fingerprints(first) == run_fingerprints(second)
        for round_id in range(1, 4):
            assert first.participation.offline(round_id) == second.participation.offline(
                round_id
            )

    def test_quorum_shrinks_to_present_peers(self):
        """Offline peers are excluded from the round's quorum, so the
        round completes without waiting on them."""
        spec = ParticipationSpec(windows=((1, 2, 1), (2, 2, 1)))
        driver = make_driver(rounds=3, peers=("A", "B", "C", "D"), participation=spec)
        driver.run()
        assert driver.abort_reason == ""
        round2 = sorted(log.peer_id for log in driver.round_logs if log.round_id == 2)
        assert round2 == ["A", "D"]

    def test_skipped_round_rejoin_pulls_last_finished_round(self):
        """A round with fewer than two live peers is skipped; rejoiners must
        catch up from the last *finished* round, not the skipped one."""
        spec = ParticipationSpec(windows=((1, 2, 1), (2, 2, 1), (3, 2, 1)))
        driver = make_driver(rounds=3, peers=("A", "B", "C", "D"), participation=spec)
        driver.run()
        assert driver.abort_reason == ""
        assert driver.skipped_rounds == [2]
        assert driver.completed_rounds == 2  # rounds 1 and 3
        assert not [log for log in driver.round_logs if log.round_id == 2]
        # Every rejoiner pulled round 1's aggregate — a fetch against the
        # skipped round would find zero models.
        rejoins = [entry for entry in driver.catch_ups if entry["round"] == 3]
        assert sorted(entry["peer"] for entry in rejoins) == ["B", "C", "D"]
        for entry in rejoins:
            assert entry["models"] > 0

    def test_last_finished_round_tracks_completions(self):
        driver = make_driver(rounds=2, participation=SAMPLED_3)
        driver.run()
        assert driver.last_finished_round == 2


class TestAbortBookkeeping:
    def test_abort_reason_reports_scheduled_round(self):
        """The abort message names the round that was scheduled when the
        failure hit — completed_rounds + 1, not a stale or off-by-one id."""
        driver = make_driver(
            rounds=3, peers=("A", "B", "C"), faults=FaultSpec(transient_rate=0.01)
        )
        original = driver.run_round

        def failing(round_id):
            if round_id == 2:
                raise RoundError("injected round failure")
            return original(round_id)

        driver.run_round = failing
        driver.run()
        assert driver.completed_rounds == 1
        assert driver.abort_reason == "round 2: injected round failure"
        match = re.match(r"round (\d+):", driver.abort_reason)
        assert int(match.group(1)) == driver.completed_rounds + 1

    def test_fault_only_run_keeps_pr7_bookkeeping(self):
        """Absence machinery stays inert for pure fault runs: crash
        transitions and catch-ups match the fault plan exactly."""
        spec = FaultSpec(crash_fraction=0.25, crash_round=2, crash_rounds=1)
        driver = make_driver(rounds=3, peers=("A", "B", "C", "D"), faults=spec)
        driver.run()
        assert driver.abort_reason == ""
        assert driver.skipped_rounds == []
        assert driver.last_finished_round == 3
        assert [entry["peer"] for entry in driver.catch_ups] == ["D"]
        assert driver.catch_ups[0]["round"] == 3


# ---------------------------------------------------------------------------
# Scenario layer: dataset memo separation
# ---------------------------------------------------------------------------


class TestDatasetMemoSeparation:
    def test_sampled_run_cannot_poison_full_run_cache(self):
        """A sampled run materializes only its ever-active subcohort; a
        full run through the same context must still see every split
        (the participation axis keys the memo entries apart)."""
        context = ScenarioContext()
        base = cohort_scenario(6).quick()
        sampled = run_scenario(
            replace_axis(base, "participation.sampled_k", 3), context=context
        )
        stats = sampled.chain_stats["participation"]
        assert stats["instantiated"] < 6
        full = run_scenario(base, context=context)
        for round_id in {log.round_id for log in full.round_logs}:
            logged = [log for log in full.round_logs if log.round_id == round_id]
            assert len(logged) == 6

    def test_full_run_identical_with_and_without_sampled_cache(self):
        shared = ScenarioContext()
        base = cohort_scenario(6).quick()
        run_scenario(replace_axis(base, "participation.sampled_k", 3), context=shared)
        polluted = run_scenario(base, context=shared)
        fresh = run_scenario(base, context=ScenarioContext())
        assert polluted.model_digests == fresh.model_digests
        assert polluted.chain_stats["heights"] == fresh.chain_stats["heights"]
