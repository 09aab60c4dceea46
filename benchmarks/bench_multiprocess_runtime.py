"""X6 — out-of-process cohort runtime: wall-clock vs worker count.

PR 4 parallelized the combination search and PR 5 cut the transport-
agnostic :class:`ChainGateway` seam; this bench prices the final step —
running the peers' compute as separate OS processes while the
coordinator keeps the ledger (:mod:`repro.runtime`).  The same cohort scenario
runs in-process and multiprocess at several worker counts, reporting
wall-clock, rounds/sec, speedup, and the wire traffic the topology
costs.

The runtime is a pure process-topology knob: at the same seed the
multiprocess run must reproduce the in-process run byte for byte (final
model weight digests, per-round accuracy tables and adopted
combinations, chain heights, off-chain blob counts).  Every comparison
asserts that equivalence in-bench before it reports a single number —
a speedup that changed the results would be a bug, not a win.

Acceptance (full tier only, and only on >= 4 cores): the 50-peer
profile at 4 workers must finish >= 2x faster than in-process.  Smoke
(``--smoke``, tier-1) trims to the 10-peer profile at 2 workers and
checks equivalence plus the wire-telemetry shape, never wall-clock —
a loaded CI box must not flake tier-1 on a timing.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from _bench_util import run_once
from repro.metrics.tables import render_table
from repro.scenarios import ScenarioContext, cohort_scenario, run_scenario

#: Acceptance floor: 4 workers must beat in-process by this factor at the
#: 50-peer profile (full tier, >= 4 cores).
SPEEDUP_FLOOR = 2.0

_CACHE: dict = {}


def runtime_params(smoke: bool = False) -> dict:
    """Cohort sizes and worker counts for one tier."""
    if smoke:
        return {
            "sizes": (10,),
            "workers": (2,),
            "rounds": 2,
            "train": 80,
            "test": 60,
        }
    return {
        "sizes": (10, 25, 50),
        "workers": (1, 2, 4),
        "rounds": 3,
        "train": 200,
        "test": 150,
    }


def _profile_spec(size: int, rounds: int, train: int, test: int, seed: int):
    base = cohort_scenario(size, seed=seed)
    return replace(
        base,
        rounds=rounds,
        local_epochs=1,
        cohort=replace(base.cohort, train_samples=train, test_samples=test),
        aggregator_test_samples=test,
    )


def _identity_payload(result) -> dict:
    """Everything the runtime may not change, in one comparable value."""
    return {
        "digests": result.model_digests,
        "logs": [
            (
                log.peer_id,
                log.round_id,
                tuple(log.combination_accuracy.items()),
                log.chosen_combination,
                log.chosen_accuracy,
                log.submitted_at,
                log.aggregated_at,
            )
            for log in result.round_logs
        ],
        "heights": result.chain_stats["heights"],
        "offchain_blobs": result.chain_stats["offchain_blobs"],
        "wait_times": result.wait_times,
    }


def compare_runtimes(
    size: int,
    workers: tuple[int, ...],
    rounds: int,
    train: int,
    test: int,
    seed: int = 42,
) -> dict:
    """Run one cohort profile in-process and at each worker count.

    Returns one row per arm (wall seconds, rounds/sec, speedup vs
    in-process, wire bytes and round trips).  Raises ``AssertionError``
    if any multiprocess arm's outputs differ from the in-process run's.
    """
    key = (size, tuple(workers), rounds, train, test, seed)
    if key in _CACHE:
        return _CACHE[key]
    spec = _profile_spec(size, rounds, train, test, seed)
    # All arms share datasets and backbones; each worker count gets its
    # own fleet, launched by its run and shut down with the context.
    with ScenarioContext() as context:
        start = time.perf_counter()
        baseline = run_scenario(spec, context=context)
        base_wall = time.perf_counter() - start
        expected = _identity_payload(baseline)

        rows = [
            {
                "arm": "inprocess",
                "workers": 0,
                "wall_s": base_wall,
                "rounds_per_s": rounds / base_wall,
                "speedup": 1.0,
                "wire_mb": 0.0,
                "rpc_trips": 0,
            }
        ]
        for count in workers:
            mp_spec = replace(spec, runtime="multiprocess", runtime_workers=count)
            start = time.perf_counter()
            result = run_scenario(mp_spec, context=context)
            wall = time.perf_counter() - start
            assert _identity_payload(result) == expected, (
                f"multiprocess({count} workers) diverged from in-process "
                f"at the {size}-peer profile"
            )
            wire = result.chain_stats["gateway"]["wire"]
            rows.append(
                {
                    "arm": f"multiprocess/{count}",
                    "workers": count,
                    "wall_s": wall,
                    "rounds_per_s": rounds / wall,
                    "speedup": base_wall / wall,
                    "wire_mb": (wire["bytes_sent"] + wire["bytes_received"]) / 1e6,
                    "rpc_trips": wire["rpc_round_trips"],
                }
            )
    result = {"size": size, "rounds": rounds, "rows": rows}
    _CACHE[key] = result
    return result


def _print_comparison(result: dict) -> None:
    print()
    print(
        render_table(
            f"X6: runtime wall-clock ({result['size']} peers, {result['rounds']} rounds)",
            ["arm", "wall s", "rounds/s", "speedup", "wire MB", "rpc trips"],
            [
                [
                    row["arm"],
                    f"{row['wall_s']:.1f}",
                    f"{row['rounds_per_s']:.2f}",
                    f"{row['speedup']:.2f}x",
                    f"{row['wire_mb']:.1f}",
                    f"{row['rpc_trips']}",
                ]
                for row in result["rows"]
            ],
        )
    )


def test_multiprocess_byte_identical(benchmark, smoke):
    """Every arm reproduces the in-process run exactly (asserted in-bench).

    The equality assertions live inside :func:`compare_runtimes`, so the
    smallest profile is both the timing row and the equivalence proof.
    """
    params = runtime_params(smoke)
    result = run_once(
        benchmark,
        lambda: compare_runtimes(
            params["sizes"][0],
            params["workers"],
            params["rounds"],
            params["train"],
            params["test"],
        ),
    )
    _print_comparison(result)
    mp_rows = [row for row in result["rows"] if row["workers"]]
    assert mp_rows, "no multiprocess arm ran"
    for row in mp_rows:
        assert row["rpc_trips"] > 0 and row["wire_mb"] > 0


def test_speedup_at_scale(benchmark, smoke):
    """>= 2x at 50 peers / 4 workers — full tier on >= 4 cores only.

    Smoke runs the comparison for coverage but skips the wall-clock
    floor: timing assertions on shared CI runners flake, and the smoke
    profile is too small to amortize worker start-up anyway.
    """
    params = runtime_params(smoke)
    size = params["sizes"][-1]
    result = run_once(
        benchmark,
        lambda: compare_runtimes(
            size,
            params["workers"],
            params["rounds"],
            params["train"],
            params["test"],
        ),
    )
    _print_comparison(result)
    if smoke or (os.cpu_count() or 1) < 4:
        return  # coverage-only tier: equivalence already asserted in-bench
    best = max(row["speedup"] for row in result["rows"] if row["workers"] >= 4)
    assert best >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x wall-clock speedup at the "
        f"{size}-peer profile with 4 workers, got {best:.2f}x"
    )
