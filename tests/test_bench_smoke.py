"""Tier-1 smoke coverage of the benchmark harness.

Runs the smoke-scale cores of ``bench_chain_throughput``,
``bench_commitment_pipeline``, ``bench_block_execution``,
``bench_cohort_scaling``, ``bench_selection_engine``,
``bench_chain_gateway``, ``bench_fault_resilience``,
``bench_multiprocess_runtime``, ``bench_client_sampling``, and
``bench_chain_scaleout`` in-process (the same code paths
``pytest benchmarks/... --smoke`` exercises), so the tier-1 suite catches
benchmark bit-rot and enforces the pipelines' headline numbers in seconds.
"""

import sys
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

import bench_block_execution
import bench_chain_gateway
import bench_chain_scaleout
import bench_chain_throughput
import bench_client_sampling
import bench_cohort_scaling
import bench_commitment_pipeline
import bench_fault_resilience
import bench_multiprocess_runtime
import bench_selection_engine


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


class TestCommitmentPipelineSmoke:
    def test_speedup_meets_acceptance_floor(self):
        result = bench_commitment_pipeline.compare_pipelines(
            **bench_commitment_pipeline.pipeline_params(smoke=True)
        )
        # The deterministic marshalling counters are the hard contract;
        # the wall-clock ratio (typically ~5x, acceptance floor 2x in the
        # opt-in bench) gets slack here so a loaded CI box can't flake
        # tier-1 on a sub-millisecond timing.
        assert result["speedup"] >= 1.5
        assert result["cached_encodes_per_model"] == 1.0
        assert result["legacy_encodes_per_model"] >= 3.0

    def test_live_round_profile(self):
        profile = bench_commitment_pipeline.round_serialization_profile(rounds=1)
        assert profile["encodes_per_model"] == 1.0
        assert profile["store"]["deserializations"] == 0


class TestBlockExecutionSmoke:
    def test_speedup_and_counters(self):
        result = bench_block_execution.compare_block_execution(
            **bench_block_execution.execution_params(smoke=True)
        )
        # The deterministic counters (one crypto verification per tx,
        # journal entries ~ touched, re-hashes ~ dirty accounts) are the
        # hard contract; the wall-clock ratio (typically >4x at smoke
        # scale, 3x acceptance floor in the opt-in bench at full scale)
        # gets slack so timing noise can't flake tier-1.
        assert result["speedup"] >= 1.5
        bench_block_execution._check_counters(result)

    def test_rollback_cost_flat_in_state_size(self):
        small = bench_block_execution.rollback_profile(64)
        large = bench_block_execution.rollback_profile(1024)
        assert small["entries_reverted"] == large["entries_reverted"]


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


class TestSelectionEngineSmoke:
    """Smoke-tier scoring engine: speedup, equivalence, cache contract.

    ``compare_engines`` asserts serial/memoized equality and ``compare_kernel`` batched/per-candidate identity
    internally; the deterministic cache counters are the hard contract
    here, the wall-clock ratio gets CI slack (1.3x floor vs the 3x the
    opt-in full bench enforces at the 25-update profile).
    """

    def test_speedup_and_cache_contract(self):
        params = bench_selection_engine.engine_params(smoke=True)
        n, max_size, n_test = params["profiles"][0]
        result = bench_selection_engine.compare_engines(n, max_size, n_test)
        assert result["speedup"] >= params["floor"]
        assert result["evaluations"] <= result["subsets"]
        assert result["reuse_evaluations"] == 0

    def test_batched_kernel_matches_per_candidate_oracle(self):
        # Accuracy and logit identity are asserted inside compare_kernel.
        candidates, n_test = bench_selection_engine.engine_params(smoke=True)["kernel"]
        result = bench_selection_engine.compare_kernel(candidates, n_test)
        assert result["batched_evaluations"] == candidates

    def test_solo_scores_reused(self):
        counters = bench_selection_engine.solo_reuse_counters()
        assert counters["engine_evaluations"] == counters["subsets"]
        assert counters["engine_extra_after_enumerate"] == 0


class TestChainGatewaySmoke:
    """Smoke-tier ledger-gateway comparison at the 25-peer profile.

    ``compare_gateways`` asserts result equality between the backends
    internally (accuracy tables, adopted combinations, wait times), so
    the round-trip floor below is both the acceptance gate and the
    unchanged-outputs proof.  The counters are deterministic — no
    wall-clock slack needed.
    """

    @classmethod
    def _comparison(cls):
        return bench_chain_gateway.compare_gateways(
            **bench_chain_gateway.gateway_params(smoke=True)
        )

    def test_round_trip_reduction_meets_floor(self):
        result = self._comparison()
        assert result["size"] == 25  # the acceptance profile
        assert result["trip_reduction"] >= bench_chain_gateway.ROUND_TRIP_FLOOR
        assert result["cache_hits"] > 0

    def test_transport_traffic_shrinks_requests_do_not(self):
        result = self._comparison()
        assert result["batched_response_bytes"] < result["raw_response_bytes"]
        assert (
            result["raw"]["requested"]["requested_reads"]
            == result["batched"]["requested"]["requested_reads"]
        )


class TestMultiprocessRuntimeSmoke:
    """Smoke-tier out-of-process runtime: equivalence and wire telemetry.

    Byte-identity between the in-process and multiprocess arms is
    asserted inside ``compare_runtimes``; wall-clock gets no floor here
    (the smoke profile can't amortize worker start-up and timing floors
    flake tier-1) — the full bench enforces the 2x speedup on >= 4
    cores.
    """

    @classmethod
    def _comparison(cls):
        params = bench_multiprocess_runtime.runtime_params(smoke=True)
        return bench_multiprocess_runtime.compare_runtimes(
            params["sizes"][0],
            params["workers"],
            params["rounds"],
            params["train"],
            params["test"],
        )

    def test_multiprocess_arm_is_byte_identical(self):
        result = self._comparison()
        arms = [row["arm"] for row in result["rows"]]
        assert arms[0] == "inprocess" and len(arms) >= 2

    def test_wire_telemetry_is_populated(self):
        result = self._comparison()
        for row in result["rows"]:
            if row["workers"]:
                assert row["rpc_trips"] > 0 and row["wire_mb"] > 0
            else:
                assert row["rpc_trips"] == 0


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


class TestChainScaleoutSmoke:
    """Smoke-tier scale-out bench: byte identity, spilling, rejoin bound.

    The contracts are asserted inside the bench cores (parallel import ==
    serial on head hash / state root / receipts, spill-through to the
    cold store, rejoin replay bounded by the snapshot interval); timings
    are reported, never floored.
    """

    def test_parallel_import_byte_identical(self):
        params = bench_chain_scaleout.scaleout_params(smoke=True)
        profile = bench_chain_scaleout.run_parallel_identity(params["block_txs"])
        assert profile["clean_txs"] == params["block_txs"]
        assert profile["serial_s"] > 0 and profile["parallel_s"] > 0

    def test_cold_storage_spills(self):
        params = bench_chain_scaleout.scaleout_params(smoke=True)
        profile = bench_chain_scaleout.run_cold_profile(
            params["registered"],
            params["sampled"],
            params["rounds"],
            params["hot_window"],
        )
        assert profile["rounds_per_s"] > 0
        if profile["height"] > params["hot_window"] + 1:
            assert profile["spilled_blocks"] > 0

    def test_snapshot_rejoin_bounded(self):
        params = bench_chain_scaleout.scaleout_params(smoke=True)
        profile = bench_chain_scaleout.run_rejoin_profile(
            params["chain_length"], params["snapshot_interval"]
        )
        assert profile["replayed"] * 4 <= profile["chain_length"]
        assert profile["skipped"] > 0


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
