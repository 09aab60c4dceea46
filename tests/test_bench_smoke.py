"""Tier-1 smoke coverage of the benchmark harness.

Runs the smoke-scale cores of ``bench_chain_throughput``,
``bench_cohort_scaling``, ``bench_client_sampling`` and
``bench_fault_resilience`` in-process (the same code paths
``pytest benchmarks/... --smoke`` exercises), so the tier-1 suite catches
benchmark bit-rot and enforces the benches' headline numbers in seconds.
Wall-clock is measured by ``benchmarks/perf`` alone.
"""

import sys
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

import bench_chain_throughput
import bench_client_sampling
import bench_cohort_scaling
import bench_fault_resilience


class TestChainThroughputSmoke:
    def test_smoke_backlog_drains(self):
        result = bench_chain_throughput._drain_backlog(3, n_txs=8, seed=0)
        assert result["throughput"] > 0
        assert result["blocks"] > 0

    def test_smoke_sweep_shape(self):
        rows = bench_chain_throughput._sweep(smoke=True)
        assert [row["nodes"] for row in rows] == [3, 6]
        assert all(row["throughput"] > 0 for row in rows)
        # The paper's accepted finding holds even at smoke scale.
        assert rows[0]["throughput"] > rows[-1]["throughput"]


class TestCohortScalingSmoke:
    """Smoke-tier cohort sweep: policies, greedy selection, shared datasets."""

    @classmethod
    def _sweep(cls):
        params = bench_cohort_scaling.sweep_params(smoke=True)
        return bench_cohort_scaling.scaling_sweep(
            params["sizes"], params["k"], params["quick"]
        )

    def test_wait_grows_and_async_is_faster(self):
        result = self._sweep()
        waits_all = [row["mean_wait_s"] for row in result["wait_all"]]
        assert waits_all[-1] > waits_all[0] > 0.0
        for row_all, row_k in zip(result["wait_all"], result["wait_k"]):
            assert row_k["mean_wait_s"] <= row_all["mean_wait_s"]
            assert 0.0 < row_k["final_accuracy"] <= 1.0

    def test_sweep_shares_datasets(self):
        result = self._sweep()
        total = result["dataset_hits"] + result["dataset_misses"]
        assert result["dataset_hits"] >= total / 2


class TestClientSamplingSmoke:
    """Smoke-tier participation bench: work bounds and full-participation
    byte-identity.

    Both contracts are asserted inside the bench cores (training logs ==
    sampled subcohort, instantiation <= ever-active, transaction budget,
    ``sampled_k = n`` == unsampled); wall-clock is reported but never
    floored, so a loaded CI box can't flake tier-1 on a timing.
    """

    @classmethod
    def _profile(cls):
        params = bench_client_sampling.sampling_params(smoke=True)
        return bench_client_sampling.run_sampling_profile(
            params["registered"],
            params["sampled"],
            params["rounds"],
            params["train"],
            params["test"],
        )

    def test_work_bounded_by_subcohort(self):
        profile = self._profile()
        assert profile["registered"] == 30
        assert profile["instantiated"] < profile["registered"]
        assert profile["rounds_per_s"] > 0

    def test_peak_rss_reported(self):
        profile = self._profile()
        assert profile["peak_rss_mb"] > 0

    def test_full_participation_unchanged(self):
        params = bench_client_sampling.sampling_params(smoke=True)
        result = bench_client_sampling.check_full_equivalence(
            params["identity_size"],
            params["rounds"],
            params["train"],
            params["test"],
        )
        assert result["identical"]


class TestFaultResilienceSmoke:
    """Smoke-tier fault sweep: completion floor, abort contrast, equivalence.

    All three signals are deterministic functions of the seed (fault
    decisions come from the ``faults/*`` streams), so the floors need no
    wall-clock slack.
    """

    @classmethod
    def _profile(cls):
        return bench_fault_resilience.resilience_profile(smoke=True)

    def test_retries_meet_completion_floor(self):
        profile = self._profile()
        by_label = {row["intensity"]: row for row in profile["rows"]}
        mid = by_label["mid"]
        assert mid["injected"] > 0 and mid["retries"] > 0
        assert mid["completion_rate"] >= bench_fault_resilience.COMPLETION_FLOOR

    def test_without_retries_the_run_aborts(self):
        profile = self._profile()
        assert profile["unshielded_completed"] < profile["params"]["rounds"]
        assert profile["unshielded_abort"] != ""

    def test_transient_plan_byte_equivalent_to_fault_free(self):
        profile = self._profile()
        baseline = profile["results"]["off"]
        shielded = profile["results"]["mid"]
        assert shielded.client_accuracy == baseline.client_accuracy
        assert shielded.wait_times == baseline.wait_times
        assert shielded.chain_stats["heights"] == baseline.chain_stats["heights"]
