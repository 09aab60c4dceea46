"""Tests for the off-chain store and the round record."""

import numpy as np
import pytest

from repro.core.offchain import OffchainStore
from repro.core.rounds import Round
from repro.errors import (
    GatewayError,
    GatewayTimeoutError,
    GatewayUnavailableError,
    RoundError,
    SerializationError,
    TransientGatewayError,
)
from repro.fl.async_policy import WaitForAll, WaitForK
from repro.nn.serialize import weights_hash

from test_core_decentralized import make_driver


class TestOffchainStore:
    def test_put_get_round_trip(self):
        store = OffchainStore()
        key = store.put(b"payload")
        assert store.get(key) == b"payload"

    def test_content_addressed(self):
        store = OffchainStore()
        assert store.put(b"x") == store.put(b"x")
        assert len(store) == 1

    def test_missing_key_raises(self):
        with pytest.raises(SerializationError):
            OffchainStore().get("0xmissing")

    def test_weights_round_trip(self):
        store = OffchainStore()
        weights = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
        key = store.put_weights(weights)
        assert key == weights_hash(weights)
        restored = store.get_weights(key)
        np.testing.assert_array_equal(restored["w"], weights["w"])

    def test_maybe_get_weights(self):
        store = OffchainStore()
        assert store.maybe_get_weights("0xnope") is None
        key = store.put_weights({"w": np.ones(2)})
        assert store.maybe_get_weights(key) is not None

    def test_contains_and_size(self):
        store = OffchainStore()
        key = store.put(b"abc")
        assert key in store
        assert store.total_bytes() == 3

    def test_counters(self):
        store = OffchainStore()
        key = store.put(b"abc")
        store.get(key)
        store.get(key)
        assert store.puts == 1
        assert store.gets == 2


class TestRound:
    """The round record: its quorum size, its one way to lose a peer, and
    — driven through a real 3-peer deployment — the clock marks the
    paper's speed metric is computed from."""

    def _round(self, degradable=False):
        return Round(1, ["A", "B", "C"], opened_at=0.0, degradable=degradable)

    def test_expected_is_cohort_size_and_shrinks_per_drop(self):
        rnd = self._round(degradable=True)
        assert rnd.expected() == 3
        for left, peer_id in ((2, "C"), (1, "B")):
            with rnd.may_drop(peer_id):
                raise GatewayUnavailableError("gave up")
            assert rnd.expected() == left
        assert rnd.dropped == {"B", "C"}
        assert rnd.live == ["A", "B", "C"]  # the working set itself is not edited

    def test_may_drop_swallows_unavailable_when_degradable(self):
        rnd = self._round(degradable=True)
        with rnd.may_drop("B"):
            raise GatewayUnavailableError("circuit open")
        assert rnd.dropped == {"B"}
        with rnd.may_drop("A"):
            pass
        assert rnd.dropped == {"B"}  # a step that succeeds drops nobody

    def test_may_drop_reraises_when_not_degradable(self):
        rnd = self._round(degradable=False)
        with pytest.raises(GatewayUnavailableError):
            with rnd.may_drop("B"):
                raise GatewayUnavailableError("gave up")
        assert rnd.dropped == set() and rnd.expected() == 3

    @pytest.mark.parametrize("degradable", [False, True])
    @pytest.mark.parametrize(
        "error", [GatewayError, GatewayTimeoutError, TransientGatewayError, RoundError]
    )
    def test_may_drop_never_swallows_other_errors(self, degradable, error):
        rnd = self._round(degradable=degradable)
        with pytest.raises(error):
            with rnd.may_drop("B"):
                raise error("not a give-up")
        assert rnd.dropped == set()

    def _staggered_run(self, policy):
        """Three peers finishing training ~10/60/150 s in, two rounds;
        returns the driver and every ``(peer, round, now, visible)`` its
        peers' chain views answered."""
        driver = make_driver(policy=policy, rounds=2, training_times=[10.0, 60.0, 150.0])
        seen = []
        for peer_id, peer in driver.peers.items():
            def watched(round_id, peer_id=peer_id, inner=peer.visible_submissions):
                records = inner(round_id)
                seen.append((peer_id, round_id, driver.sim.now, len(records)))
                return records
            peer.visible_submissions = watched
        driver.run()
        return driver, seen

    def test_ready_at_is_first_instant_k_are_visible(self):
        driver, seen = self._staggered_run(WaitForK(2))
        assert len(driver.round_logs) == 6
        for log in driver.round_logs:
            mine = [
                (now, visible)
                for peer_id, round_id, now, visible in seen
                if (peer_id, round_id) == (log.peer_id, log.round_id)
            ]
            # The quorum phase only polls a peer that has submitted, so
            # every observation is a candidate firing instant.
            assert log.ready_at == min(now for now, visible in mine if visible >= 2)
        # The fast peer really waited: it saw fewer than two first, and
        # fired before the slow peer's submission existed.
        for round_id in (1, 2):
            by_peer = {
                log.peer_id: log for log in driver.round_logs if log.round_id == round_id
            }
            fast, slow = by_peer["A"], by_peer["C"]
            assert any(
                visible < 2 and now < fast.ready_at
                for peer_id, rnd_id, now, visible in seen
                if (peer_id, rnd_id) == ("A", round_id)
            )
            assert fast.submitted_at < fast.ready_at < slow.submitted_at

    @pytest.mark.parametrize("policy", [WaitForAll(), WaitForK(2)], ids=["all", "k2"])
    def test_wait_time_is_ready_minus_submitted(self, policy):
        driver, _seen = self._staggered_run(policy)
        assert len(driver.round_logs) == 6
        for log in driver.round_logs:
            assert log.submitted_at <= log.ready_at <= log.aggregated_at
            assert log.wait_time == log.ready_at - log.submitted_at
        summary = driver.wait_time_summary()
        for peer_id, mean_wait in summary.items():
            waits = [log.wait_time for log in driver.round_logs if log.peer_id == peer_id]
            assert mean_wait == pytest.approx(sum(waits) / len(waits))
        # Waiting is what the fast device pays for the slow one.
        assert summary["A"] > summary["C"]
