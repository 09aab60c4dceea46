"""Tests for proof of work: retargeting and mining-time statistics."""

import numpy as np
import pytest

from repro.chain.pow import ProofOfWork, RetargetRule


class TestRetarget:
    def test_fast_parent_raises_difficulty(self):
        rule = RetargetRule(target_interval=13.0, adjustment_quotient=16)
        assert rule.next_difficulty(1600, parent_interval=5.0) == 1700

    def test_slow_parent_lowers_difficulty(self):
        rule = RetargetRule(target_interval=13.0, adjustment_quotient=16)
        assert rule.next_difficulty(1600, parent_interval=30.0) == 1500

    def test_on_target_keeps_difficulty(self):
        rule = RetargetRule(target_interval=13.0)
        assert rule.next_difficulty(1600, parent_interval=13.0) == 1600

    def test_floor_respected(self):
        rule = RetargetRule(min_difficulty=10)
        assert rule.next_difficulty(10, parent_interval=100.0) == 10

    def test_small_difficulty_still_steps(self):
        rule = RetargetRule(adjustment_quotient=16)
        assert rule.next_difficulty(5, parent_interval=1.0) == 6


class TestStatisticalPoW:
    def test_expected_time_scales_with_difficulty(self):
        pow_engine = ProofOfWork(np.random.default_rng(0))
        assert pow_engine.expected_time(200, hashrate=100) == 2.0

    def test_zero_hashrate_rejected(self):
        pow_engine = ProofOfWork(np.random.default_rng(0))
        with pytest.raises(ValueError):
            pow_engine.expected_time(100, hashrate=0)

    def test_sample_mean_approximates_expectation(self):
        pow_engine = ProofOfWork(np.random.default_rng(0))
        samples = [pow_engine.sample_mining_time(100, 100) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(1.0, rel=0.1)

    def test_samples_non_negative(self):
        pow_engine = ProofOfWork(np.random.default_rng(0))
        assert all(pow_engine.sample_mining_time(10, 10) >= 0 for _ in range(100))

    def test_hashrate_proportional_leader_election(self):
        # A miner with 3x hashrate should win roughly 3/4 of the races.
        rng = np.random.default_rng(42)
        pow_engine = ProofOfWork(rng)
        wins = 0
        trials = 3000
        for _ in range(trials):
            fast = pow_engine.sample_mining_time(100, 300)
            slow = pow_engine.sample_mining_time(100, 100)
            if fast < slow:
                wins += 1
        assert wins / trials == pytest.approx(0.75, abs=0.04)

    def test_sample_nonce_in_range(self):
        pow_engine = ProofOfWork(np.random.default_rng(0))
        assert 0 <= pow_engine.sample_nonce() < 2**63
