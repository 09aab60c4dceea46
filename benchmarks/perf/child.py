"""One measurement process: set up a workload, run passes over it, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src/`` and the BLAS
thread pools pinned to one thread.  Prints one JSON object as the last line
of stdout.  A *pass* is one closed-loop run of every spec of the workload,
one after another, against the context warmed during set-up.  Host times are
reported in reference seconds (see ``reference.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.chain import STATE_STATS, VALIDATION_STATS
from repro.scenarios import ScenarioContext, ScenarioSpec
from repro.scenarios import runner
from repro.utils.rng import RngFactory

from reference import HostSpeed
from tracing import (
    EXACT_UNITS,
    HOST_DEPENDENT,
    LAYER_METRICS,
    Summary,
    Tracer,
    layer_metrics,
    ratio,
    self_times,
    summarize,
)
from workloads import build_specs


def _cpu_seconds() -> float:
    """User + system CPU of this process and of every descendant it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set so far of this process plus its largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    descendants = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + descendants) / 1024.0


def platform_key() -> str:
    """What bit-exact float results depend on: goldens hold on one platform.

    OpenBLAS picks its kernels from the CPU at run time, and different
    kernels round differently, so a ``result_digest`` recorded on one CPU
    model says nothing about another.
    """
    model = "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return f"numpy {np.__version__}, {platform.machine()}, {model}"


def _digest(payload: object) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """What one pass over the workload's specs produced."""

    traced: bool
    #: Host times of the pass, in reference seconds.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: The wall time as the clock read it, and how many times slower than
    #: nominal the host ran meanwhile.
    measured_wall_s: float = 0.0
    host_slowdown: float = 1.0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    sim_wait_s: float = 0.0
    final_accuracy: float = 0.0
    result_digest: str = ""
    equivalence_digest: str = ""
    problems: list[str] = field(default_factory=list)
    summary: Optional[Summary] = None
    counters: dict[str, float] = field(default_factory=dict)


def _sum_stats(results: list) -> dict:
    """Key-wise sum of the numeric leaves of every run's ``chain_stats``."""
    total: dict = {}

    def add(into: dict, extra: dict) -> None:
        for key, value in extra.items():
            if isinstance(value, dict):
                add(into.setdefault(key, {}), value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                into[key] = into.get(key, 0) + value

    for result in results:
        add(total, result.chain_stats)
    return total


def program_counters(results: list, tracer: Tracer, hashed: int, verified: int) -> dict[str, float]:
    """Per-layer counts read from surfaces the program already exposes."""
    stats = _sum_stats(results)
    marshalling = stats.get("offchain_marshalling", {})
    gateway = stats.get("gateway", {})
    requested = gateway.get("requested", {})
    transport = gateway.get("transport", {})
    resilience = gateway.get("resilience", {})
    wire = gateway.get("wire", {})
    storage = stats.get("storage", {})
    cold = storage.get("cold", {})
    execution = stats.get("execution", {})
    cache_stats = [cache.stats for cache in tracer.caches.values()]
    hits = sum(stats_["hits"] for stats_ in cache_stats)
    misses = sum(stats_["misses"] for stats_ in cache_stats)
    return {
        "core.offchain.put.bytes": stats.get("offchain_bytes", 0),
        "core.offchain.decode_hit_ratio": ratio(
            marshalling.get("decode_hits", 0), marshalling.get("gets", 0)
        ),
        "nn.serialize.encode.bytes": tracer.byte_counts.get("nn.serialize.encode.bytes", 0),
        "fl.scoring.evaluations": misses,
        "fl.scoring.cache_hit_ratio": ratio(hits, hits + misses),
        "chain.gateway.read_bytes": transport.get("response_bytes", 0),
        "chain.gateway.round_trip_ratio": ratio(
            transport.get("contract_call_round_trips", 0), requested.get("requested_reads", 0)
        ),
        "chain.state.accounts_hashed": hashed,
        "chain.tx.signature_checks": verified,
        "chain.network.messages_delivered": stats.get("messages_delivered", 0),
        "chain.network.messages_dropped": stats.get("messages_dropped", 0),
        "chain.network.batches_delivered": stats.get("batches_delivered", 0),
        "chain.network.blocks_mined": stats.get("blocks_mined", 0),
        "chain.network.reorgs": stats.get("reorgs", 0),
        "chain.network.syncs": stats.get("syncs", 0),
        "chain.scale.clean_ratio": ratio(
            execution.get("clean_txs", 0), execution.get("speculated_txs", 0)
        ),
        "chain.scale.cold.dedup_ratio": ratio(
            cold.get("dedup_hits", 0), cold.get("puts", 0) + cold.get("dedup_hits", 0)
        ),
        "chain.scale.cold.bytes": cold.get("bytes_written", 0),
        "chain.scale.spilled_blocks": storage.get("spilled_blocks", 0),
        "chain.scale.snap_syncs": stats.get("snap_syncs", 0),
        "faults.injected": stats.get("faults", {}).get("injected", 0),
        "faults.retries": resilience.get("retries", 0),
        "faults.deadline_misses": resilience.get("deadline_misses", 0),
        "faults.gave_up": resilience.get("gave_up", 0),
        "faults.backoff_sim_s": resilience.get("backoff_seconds", 0.0),
        "faults.catch_ups": stats.get("faults", {}).get("catch_ups", 0),
        "runtime.wire.send.bytes": wire.get("bytes_sent", 0),
        "runtime.wire.recv.bytes": wire.get("bytes_received", 0),
        "runtime.rpc_round_trips": wire.get("rpc_round_trips", 0),
        "runtime.worker_wire_s": wire.get("seconds", 0.0),
    }


def run_pass(
    workload: str,
    specs: list[ScenarioSpec],
    ctx: ScenarioContext,
    host: HostSpeed,
    tracer: Optional[Tracer],
    trace_out: Optional[str] = None,
) -> Pass:
    """Run every spec once; ``tracer`` set means this pass is traced."""
    outcome = Pass(traced=tracer is not None)
    results = []
    hashed, verified = STATE_STATS.accounts_hashed, VALIDATION_STATS.signatures_verified
    if tracer is not None:
        tracer.caches.clear()
        tracer.byte_counts.clear()
    with host.during() as reading:
        cpu_start, start = _cpu_seconds(), time.perf_counter()
        with tracer.installed() if tracer is not None else nullcontext():
            for spec in specs:
                outcome.attempted += spec.rounds
                try:
                    # Looked up on the module at call time, so an installed
                    # tracer's wrapper is the one that runs.
                    result = runner.run_scenario(spec, ctx)
                except Exception:  # boundary: a failed run is counted, the pass goes on
                    outcome.failed += spec.rounds
                    outcome.problems.append("run raised: " + traceback.format_exc(limit=4))
                    continue
                results.append(result)
                outcome.rounds += result.completed_rounds
                outcome.failed += spec.rounds - result.completed_rounds - len(result.skipped_rounds)
                if result.abort_reason:
                    outcome.problems.append(f"run aborted: {result.abort_reason}")
        measured_wall = time.perf_counter() - start
        measured_cpu = _cpu_seconds() - cpu_start
    outcome.wall_s = reading.reference_s(measured_wall)
    outcome.cpu_s = reading.reference_s(measured_cpu)
    outcome.measured_wall_s = measured_wall
    outcome.host_slowdown = reading.slowdown
    if tracer is not None:
        spans = tracer.take(tracer.run_id + 1)
        if trace_out:
            _write_spans(trace_out, spans)
        outcome.summary = summarize(spans)
        outcome.counters = program_counters(
            results,
            tracer,
            STATE_STATS.accounts_hashed - hashed,
            VALIDATION_STATS.signatures_verified - verified,
        )
    if not results:
        return outcome
    waits = [result.mean_wait() for result in results]
    outcome.sim_wait_s = statistics.fmean(waits)
    outcome.final_accuracy = statistics.fmean(r.mean_final_accuracy() for r in results)
    equivalence = [[r.model_digests, r.client_accuracy, r.wait_times] for r in results]
    outcome.equivalence_digest = _digest(equivalence)
    outcome.result_digest = _digest(
        [
            [
                r.model_digests,
                r.client_accuracy,
                r.wait_times,
                r.completed_rounds,
                r.abort_reason,
                list(r.skipped_rounds),
                r.chain_stats["heights"],
            ]
            for r in results
        ]
    )
    if workload == "paper3_tradeoff" and len(waits) == len(specs):
        # Specs are ordered model-major, wait-for-1, wait-for-2, wait-for-all.
        for first in range(0, len(waits), 3):
            if not waits[first] <= waits[first + 1] <= waits[first + 2]:
                outcome.problems.append(f"wait not monotone in k: {waits[first:first + 3]}")
    return outcome


def _write_spans(path: str, spans: list[list]) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for name, start, end, parent, run_id in spans:
            record = {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
            handle.write(json.dumps(record) + "\n")


def _layers(setup: Summary, passes: list[Pass], problems: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics over the traced passes, plus the last one's self times.

    Host-time values are medians over the traced passes, in reference
    seconds like the end-to-end times; everything else must repeat exactly
    from pass to pass.
    """
    traced = [p for p in passes if p.traced]
    untraced_wall = statistics.median(p.wall_s for p in passes if not p.traced)
    overhead = statistics.median(p.wall_s for p in traced) / untraced_wall - 1.0
    merged = [setup.merge(p.summary) for p in traced]
    per_pass = [layer_metrics(m, p.counters, overhead) for m, p in zip(merged, traced)]
    for row in per_pass:
        under = sum(value for name, value in row.items() if ".under." in name)
        if abs(under - row["utils.canonical_dumps.busy_s"]) > 1e-6:
            problems.append("canonical_dumps attribution does not sum to its busy time")
    values = {}
    for name, unit in LAYER_METRICS.items():
        column = [row[name] for row in per_pass]
        if unit in EXACT_UNITS and name not in HOST_DEPENDENT:
            if len(set(column)) > 1:
                problems.append(f"count moved between traced passes: {name} {column}")
            values[name] = column[0]
        elif unit == "s":
            values[name] = statistics.median(
                value / p.host_slowdown for value, p in zip(column, traced)
            )
        else:
            values[name] = statistics.median(column)
    last = traced[-1]
    self_s = {name: value / last.host_slowdown for name, value in self_times(last.summary).items()}
    return values, self_s


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    host = HostSpeed()
    tracer = Tracer() if args.trace else None
    with host.during() as reading:
        specs = build_specs(args.workload, args.seed, smoke=args.smoke)
        ctx = ScenarioContext()
        with tracer.installed() if tracer is not None else nullcontext():
            for spec in specs:
                # Multiprocess workers rebuild their data inside every run, so
                # there is nothing to warm on the coordinator side.
                if spec.runtime != "multiprocess":
                    runner.decentralized_inputs(spec, RngFactory(spec.seed), ctx)
        measured_setup = time.monotonic() - args.spawned_at
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "platform": platform_key(),
        "setup_s": reading.reference_s(measured_setup),
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0
    setup_spans = tracer.take(1) if tracer is not None else []
    if args.trace_out and tracer is not None:
        _write_spans(args.trace_out, setup_spans)

    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, starting
        # untraced and ending traced, so both medians come from one process.
        trace_this = tracer is not None and len(passes) % 2 == 1
        passes.append(
            run_pass(args.workload, specs, ctx, host, tracer if trace_this else None, args.trace_out)
        )
        if len(passes) == 1:
            # Read when the first pass ends: later passes raise the mark by
            # an amount that depends on the allocator's state (190 or 199 MB
            # after the second pass of ``paper3_tradeoff``, 185-186 MB after
            # the first), and how many a run holds depends on the host.
            report["peak_rss_mb"] = _peak_rss_mb()
        # Stop at the pass boundary nearest to ``--seconds``: overshooting by
        # most of a pass would not fit the time a driver's runs may take.
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(passes) >= args.seconds and (tracer is None or trace_this):
            break

    problems = [problem for p in passes for problem in p.problems]
    if len({p.result_digest for p in passes}) > 1:
        problems.append("result_digest differs between passes (traced and untraced included)")
    untraced = [p for p in passes if not p.traced]
    report.update(
        {
            "passes": [
                {"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "rounds": p.rounds,
                 "measured_wall_s": p.measured_wall_s, "host_slowdown": p.host_slowdown}
                for p in passes
            ],
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "cpu_s": statistics.median(p.cpu_s for p in untraced),
            "rounds_per_s": statistics.median(p.rounds / p.wall_s for p in untraced),
            "measured_wall_s": statistics.median(p.measured_wall_s for p in untraced),
            "host_slowdown": statistics.median(p.host_slowdown for p in untraced),
            "sim_wait_s": passes[0].sim_wait_s,
            "final_accuracy": passes[0].final_accuracy,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "result_digest": passes[0].result_digest,
            "equivalence_digest": passes[0].equivalence_digest,
        }
    )
    if tracer is not None:
        report["layers"], report["self_s"] = _layers(summarize(setup_spans), passes, problems)
    report["problems"] = problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
