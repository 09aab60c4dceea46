"""X5 — ledger-gateway batching: round trips per round, raw vs coalesced.

The FL layer reaches the chain only through the :class:`ChainGateway`
protocol (:mod:`repro.chain.gateway`).  This bench runs the same 25-peer
decentralized scenario under both backends and compares the *transport*
round trips the per-round read fan-out costs — registration checks,
visible-submission polls, finalization polls — per communication round:

* ``inprocess`` forwards every FL-layer read to the node (the pre-gateway
  call pattern, bit-for-bit);
* ``batching`` coalesces reads behind a head-keyed cache with a bounded
  staleness window, so the many poll events between two blocks cost one
  round trip per distinct read instead of one each.

Head state is immutable between head changes, so the backends produce
byte-identical results — asserted here over accuracy tables, adopted
combinations, wait times, and the full round-trip request profile.  The
acceptance floor is a >= 3x reduction in contract-call round trips per
round at the 25-peer profile (measured ~30x).

``--smoke`` keeps the 25-peer cohort (the profile is the point) but
shrinks data and rounds so the comparison runs in seconds for tier-1.
"""

from __future__ import annotations

from dataclasses import replace

from _bench_util import run_once
from repro.metrics.tables import render_table
from repro.scenarios import ScenarioContext, cohort_scenario, run_scenario
from repro.scenarios.spec import replace_axis

#: Acceptance floor: batching must cut contract-call round trips per
#: round by at least this factor at the 25-peer profile.
ROUND_TRIP_FLOOR = 3.0

_CACHE: dict = {}


def gateway_params(smoke: bool = False) -> dict:
    """The 25-peer comparison profile for one tier."""
    if smoke:
        return {"size": 25, "rounds": 2, "train": 80, "test": 60}
    return {"size": 25, "rounds": 3, "train": 200, "test": 150}


def _profile_spec(size: int, rounds: int, train: int, test: int, seed: int):
    base = cohort_scenario(size, seed=seed)
    return replace(
        base,
        rounds=rounds,
        local_epochs=1,
        cohort=replace(base.cohort, train_samples=train, test_samples=test),
        aggregator_test_samples=test,
    )


def compare_gateways(
    size: int, rounds: int, train: int, test: int, seed: int = 42
) -> dict:
    """Run the profile under both backends; assert identical results.

    Returns the per-round transport round-trip counts, their ratio, and
    the request/latency telemetry of both runs.  Raises ``AssertionError``
    if any output differs — the backend must be a pure transport knob.
    """
    key = (size, rounds, train, test, seed)
    if key in _CACHE:
        return _CACHE[key]
    spec = _profile_spec(size, rounds, train, test, seed)
    context = ScenarioContext()  # both runs share datasets/backbones
    raw = run_scenario(spec, context=context)
    batched = run_scenario(replace_axis(spec, "chain.gateway", "batching"), context=context)

    assert raw.client_accuracy == batched.client_accuracy
    assert raw.combination_accuracy == batched.combination_accuracy
    assert raw.wait_times == batched.wait_times
    assert [
        (log.peer_id, log.round_id, log.chosen_combination, log.chosen_accuracy)
        for log in raw.round_logs
    ] == [
        (log.peer_id, log.round_id, log.chosen_combination, log.chosen_accuracy)
        for log in batched.round_logs
    ]

    raw_gw = raw.chain_stats["gateway"]
    batched_gw = batched.chain_stats["gateway"]
    # The FL layer asked for the same reads either way.
    assert (
        raw_gw["requested"]["requested_reads"]
        == batched_gw["requested"]["requested_reads"]
    )
    raw_trips = raw_gw["transport"]["contract_call_round_trips"]
    batched_trips = batched_gw["transport"]["contract_call_round_trips"]
    result = {
        "size": size,
        "rounds": rounds,
        "requested_reads": raw_gw["requested"]["requested_reads"],
        "raw_trips_per_round": raw_trips / rounds,
        "batched_trips_per_round": batched_trips / rounds,
        "trip_reduction": raw_trips / max(batched_trips, 1),
        "cache_hits": batched_gw["requested"]["cache_hits"],
        "head_checks": batched_gw["requested"]["head_checks"],
        "raw_response_bytes": raw_gw["transport"]["response_bytes"],
        "batched_response_bytes": batched_gw["transport"]["response_bytes"],
        "raw": raw_gw,
        "batched": batched_gw,
    }
    _CACHE[key] = result
    return result


def _print_comparison(result: dict) -> None:
    print()
    print(
        render_table(
            f"X5: gateway round trips ({result['size']} peers, {result['rounds']} rounds)",
            ["backend", "trips/round", "head checks", "response MB", "reduction"],
            [
                [
                    "inprocess",
                    f"{result['raw_trips_per_round']:.0f}",
                    "-",
                    f"{result['raw_response_bytes'] / 1e6:.2f}",
                    "1.0x",
                ],
                [
                    "batching",
                    f"{result['batched_trips_per_round']:.0f}",
                    # Cache validations, answered by the in-process node.
                    f"{result['head_checks']}",
                    f"{result['batched_response_bytes'] / 1e6:.2f}",
                    f"{result['trip_reduction']:.1f}x",
                ],
            ],
        )
    )


def test_batching_cuts_round_trips(benchmark, smoke):
    """>= 3x fewer contract-call round trips per round, outputs unchanged.

    The equality assertions live inside :func:`compare_gateways`, so this
    single entry point is both the acceptance gate and the equivalence
    proof.  The reduction is deterministic (it counts requests, not
    seconds), so the floor is safe for tier-1.
    """
    result = run_once(benchmark, lambda: compare_gateways(**gateway_params(smoke)))
    _print_comparison(result)
    assert result["trip_reduction"] >= ROUND_TRIP_FLOOR, (
        f"expected >= {ROUND_TRIP_FLOOR}x fewer round trips, "
        f"got {result['trip_reduction']:.2f}x"
    )
    assert result["cache_hits"] > 0


def test_batching_serves_identical_bytes(benchmark, smoke):
    """Cache hits shrink transport response traffic, never its content."""
    result = run_once(benchmark, lambda: compare_gateways(**gateway_params(smoke)))
    assert result["batched_response_bytes"] < result["raw_response_bytes"]
    # Requested-profile parity: the FL layer's read pattern is unchanged.
    assert (
        result["raw"]["requested"]["requested_reads"]
        == result["batched"]["requested"]["requested_reads"]
    )
    assert result["raw"]["requested"]["submits"] == result["batched"]["requested"]["submits"]
