"""Span tracing from outside the program: timing wrappers on public calls.

``Tracer.installed()`` swaps each function in :data:`TARGETS` for a wrapper
that records one span per call — name, start, end, parent — and swaps the
originals back on exit, also when the traced code raises.  Nothing in
``src/`` knows about it.  :func:`summarize` turns spans into per-name
aggregates and :func:`layer_metrics` turns aggregates plus the program's
own counters into the per-layer metrics named in ``BENCHMARK.json``.

Definitions, per span name:

* ``busy_s`` and ``calls`` cover *outermost* spans only — a span nested
  inside another of the same name (a decorator gateway over a backend, a
  subclass calling ``super()``, recursion) is already inside the outer
  one's interval;
* ``self_s`` covers every span: its duration minus the time its direct
  children cover, so self times of all names add up to the root's busy time.

Hot leaf helpers (``storage_get``, ``sload``, ``_encode``) are deliberately
not wrapped: a wrapper costs about a microsecond, which is their own cost.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

#: (span name, module, attribute path) of every wrapped public call.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("scenarios.run", "repro.scenarios.runner", "run_scenario"),
    ("scenarios.inputs", "repro.scenarios.runner", "decentralized_inputs"),
    ("data.sample", "repro.data.synthetic", "SyntheticImageDataset.sample"),
    ("core.deploy", "repro.core.decentralized", "DecentralizedFL.deploy_contracts"),
    ("core.deploy", "repro.runtime.coordinator", "MultiprocessDecentralizedFL.deploy_contracts"),
    ("core.round", "repro.core.decentralized", "DecentralizedFL.run_round"),
    ("core.report", "repro.core.decentralized", "DecentralizedFL.chain_stats"),
    ("core.peer.train_and_commit", "repro.core.peer", "FullPeer.train_and_commit"),
    ("core.peer.fetch_updates", "repro.core.peer", "FullPeer.fetch_updates"),
    ("core.peer.visible_submissions", "repro.core.peer", "FullPeer.visible_submissions"),
    ("core.peer.adopt", "repro.core.peer", "FullPeer.adopt"),
    ("core.offchain.put", "repro.core.offchain", "OffchainStore.put_archive"),
    ("core.offchain.get", "repro.core.offchain", "OffchainStore.get_weights"),
    ("core.offchain.get", "repro.core.offchain", "OffchainStore.fetch_available"),
    ("nn.train", "repro.fl.trainer", "LocalTrainer.train"),
    ("nn.evaluate", "repro.nn.model", "Sequential.evaluate_accuracy"),
    ("nn.serialize.encode", "repro.nn.serialize", "weights_to_bytes"),
    ("nn.serialize.decode", "repro.nn.serialize", "weights_from_bytes"),
    ("nn.serialize.copy", "repro.nn.serialize", "WeightArchive.copy_weights"),
    ("fl.scoring.enumerate", "repro.fl.scoring", "CombinationEngine.enumerate"),
    ("fl.scoring.greedy", "repro.fl.scoring", "CombinationEngine.greedy"),
    ("fl.scoring.threshold_filter", "repro.fl.scoring", "CombinationEngine.threshold_filter"),
    ("fl.scoring.materialize", "repro.fl.scoring", "CombinationEngine.materialize"),
    ("fl.scoring.fingerprint", "repro.fl.scoring", "weights_fingerprint"),
    ("fl.aggregation.fedavg", "repro.fl.aggregation", "fedavg"),
    *(
        (f"chain.gateway.{method}", "repro.chain.gateway", f"{backend}.{method}")
        for backend in ("InProcessGateway", "BatchingGateway")
        for method in ("call", "batch_call", "submit", "wait_for", "get_logs")
    ),
    *(
        ("faults.gateway", "repro.faults.gateway", f"{decorator}.{method}")
        for decorator in ("FaultyGateway", "ResilientGateway")
        for method in ("call", "batch_call", "submit", "wait_for", "get_logs")
    ),
    ("chain.node.import_block", "repro.chain.node", "Node.import_block"),
    ("chain.node.build_block", "repro.chain.node", "Node.build_block_candidate"),
    ("chain.node.call_contract", "repro.chain.node", "Node.call_contract"),
    ("chain.node.sync_from", "repro.chain.node", "Node.sync_from"),
    ("chain.node.get_logs", "repro.chain.node", "Node.get_logs"),
    ("chain.state.state_root", "repro.chain.state", "WorldState.state_root"),
    ("chain.network.events", "repro.utils.events", "Simulator.step"),
    ("chain.network.broadcast_tx", "repro.chain.network", "P2PNetwork.broadcast_transaction"),
    ("chain.network.broadcast_block", "repro.chain.network", "P2PNetwork.broadcast_block"),
    ("chain.scale.execute", "repro.chain.scale.executor", "execute_block_transactions"),
    ("chain.scale.cold.put", "repro.chain.scale.coldstore", "ColdStore.put"),
    ("chain.scale.cold.get", "repro.chain.scale.coldstore", "ColdStore.get"),
    ("utils.canonical_dumps", "repro.utils.serialization", "canonical_dumps"),
    ("utils.hash_object", "repro.utils.hashing", "hash_object"),
    ("runtime.broker.launch", "repro.runtime.broker", "Broker.launch"),
    # Not public, but the only place the coordinator blocks on its workers
    # (in ``select``, outside ``WireChannel.recv``): without it that wait
    # would read as ``core.round`` self time.
    ("runtime.tasks", "repro.runtime.coordinator", "MultiprocessDecentralizedFL._run_tasks"),
    ("runtime.wire.send", "repro.runtime.wire", "WireChannel.send"),
    ("runtime.wire.recv", "repro.runtime.wire", "WireChannel.recv"),
    ("runtime.server.handle", "repro.runtime.server", "GatewayServer.handle"),
)

#: References that keep the original function.  ``CombinationEngine`` takes
#: its incremental path only when ``aggregator is fedavg``, comparing against
#: its module's own reference; replacing that one would send a traced run
#: down the generic path (same results, twice the time).  The engine's own
#: aggregator calls are therefore covered by ``fl.scoring.materialize``.
KEEP_ORIGINAL = frozenset({("repro.fl.scoring", "fedavg")})

#: Span whose time is also split by the layer of its nearest enclosing span.
ATTRIBUTED = "utils.canonical_dumps"

#: Spans whose result length is summed into ``<name>.bytes``.
SIZED = frozenset({"nn.serialize.encode"})

#: Spans whose receiver's ``cache`` (an ``EvaluationCache``) is remembered,
#: so its ``stats`` can be read after the run.
CACHE_OWNERS = frozenset(
    {"fl.scoring.enumerate", "fl.scoring.greedy", "fl.scoring.threshold_filter"}
)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, run_id]``.

    ``parent`` is the index of the enclosing span in :attr:`spans` (-1 for a
    root), so a parent always precedes its children.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.byte_counts: dict[str, int] = {}
        self.caches: dict[int, object] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._installed = False

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        stack = self._stack
        self.spans.append([name, self.clock(), 0.0, stack[-1] if stack else -1, self.run_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened as ``index`` (always the innermost)."""
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def take(self, run_id: int) -> list[list]:
        """Hand over the spans recorded so far and start run ``run_id``."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        spans, self.spans = self.spans, []
        self.run_id = run_id
        return spans

    def _wrap(self, name: str, func: Callable) -> Callable:
        begin, end = self.begin, self.end
        if name in SIZED:
            byte_counts, key = self.byte_counts, name + ".bytes"

            @functools.wraps(func)
            def traced(*args, **kwargs):
                index = begin(name)
                try:
                    result = func(*args, **kwargs)
                    byte_counts[key] = byte_counts.get(key, 0) + len(result)
                    return result
                finally:
                    end(index)

        elif name in CACHE_OWNERS:
            caches = self.caches

            @functools.wraps(func)
            def traced(*args, **kwargs):
                cache = args[0].cache
                caches[id(cache)] = cache
                index = begin(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    end(index)

        else:

            @functools.wraps(func)
            def traced(*args, **kwargs):
                index = begin(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    end(index)

        return traced

    @contextmanager
    def installed(self, targets: Sequence[tuple[str, str, str]] = TARGETS) -> Iterator[None]:
        """Wrap every target for the ``with`` body, then restore the originals.

        A method is replaced on its class.  A module-level function is
        replaced in every loaded ``repro`` module that holds a reference to
        it, because callers import such functions by name.
        """
        if self._installed:
            raise RuntimeError("tracer is already installed")
        resolved = []
        for name, module_name, path in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{module_name}.{path} is not a plain function")
            resolved.append((name, owner, attr, original, bool(owner_name)))
        undo: list[tuple[object, str, object]] = []
        self._installed = True
        try:
            for name, owner, attr, original, is_method in resolved:
                wrapper = self._wrap(name, original)
                holders = [(owner, attr)] if is_method else _references(original)
                for holder, key in holders:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
            yield
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)
            self._installed = False


def _references(func: Callable) -> list[tuple[object, str]]:
    """Every (module, name) under ``repro`` bound to ``func`` itself."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is func and (module_name, key) not in KEEP_ORIGINAL:
                found.append((module, key))
    return found


@dataclass
class Aggregate:
    """Totals of one span name (see the module docstring for definitions)."""

    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    durations: list[float] = field(default_factory=list)


@dataclass
class Summary:
    """What :func:`summarize` extracts from one list of spans."""

    by_name: dict[str, Aggregate] = field(default_factory=dict)
    #: ``ATTRIBUTED`` busy time by the layer bucket of its enclosing span.
    attributed: dict[str, float] = field(default_factory=dict)
    spans: int = 0

    def get(self, name: str) -> Aggregate:
        return self.by_name.get(name) or Aggregate()

    def self_under(self, prefix: str) -> float:
        """Summed self time of every span name starting with ``prefix``."""
        return sum(agg.self_s for name, agg in self.by_name.items() if name.startswith(prefix))

    def merge(self, other: "Summary") -> "Summary":
        """Sum of two summaries (set-up spans plus one timed pass)."""
        merged = Summary(spans=self.spans + other.spans)
        for source in (self, other):
            for name, agg in source.by_name.items():
                into = merged.by_name.setdefault(name, Aggregate())
                into.busy_s += agg.busy_s
                into.self_s += agg.self_s
                into.calls += agg.calls
                into.durations.extend(agg.durations)
            for bucket, seconds in source.attributed.items():
                merged.attributed[bucket] = merged.attributed.get(bucket, 0.0) + seconds
        return merged


def layer_bucket(name: Optional[str]) -> str:
    """Which ``utils.canonical_dumps.under.*`` bucket an enclosing span is."""
    if name is None:
        return "other"
    if name.startswith(("chain.gateway.", "faults.")):
        return "chain.gateway"
    if name.startswith("chain."):
        return "chain.node"
    if name.startswith("runtime."):
        return "runtime"
    return "other"


def summarize(spans: Sequence[Sequence]) -> Summary:
    """Per-name busy/self/calls of ``spans`` (parents precede children)."""
    summary = Summary(spans=len(spans))
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stack: list[int] = []
    open_count: dict[str, int] = {}
    by_name = summary.by_name
    for index, (name, start, end, parent, _run) in enumerate(spans):
        while stack and stack[-1] != parent:
            open_count[spans[stack.pop()][0]] -= 1
        duration = end - start
        agg = by_name.get(name)
        if agg is None:
            agg = by_name[name] = Aggregate()
        agg.self_s += duration - child_time[index]
        if not open_count.get(name):
            agg.busy_s += duration
            agg.calls += 1
            agg.durations.append(duration)
            if name == ATTRIBUTED:
                above = parent
                while above >= 0 and spans[above][0].startswith("utils."):
                    above = spans[above][3]
                bucket = layer_bucket(spans[above][0] if above >= 0 else None)
                summary.attributed[bucket] = summary.attributed.get(bucket, 0.0) + duration
        stack.append(index)
        open_count[name] = open_count.get(name, 0) + 1
    return summary


def self_times(summary: Summary) -> dict[str, float]:
    """Self seconds per span name, largest first."""
    ranked = sorted(summary.by_name.items(), key=lambda item: -item[1].self_s)
    return {name: agg.self_s for name, agg in ranked}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit of every per-layer metric, in report order.  ``count``,
#: ``bytes``, ``ratio`` and ``sim_s`` values are functions of the run alone
#: and must repeat exactly at one seed; ``s`` and ``share`` are host time.
LAYER_METRICS: dict[str, str] = {
    "scenarios.run.busy_s": "s",
    "scenarios.run.self_s": "s",
    "data.sample.busy_s": "s",
    "data.sample.calls": "count",
    "core.deploy.busy_s": "s",
    "core.round.busy_s": "s",
    "core.round.calls": "count",
    "core.round.self_s": "s",
    "core.round.p50_s": "s",
    "core.round.max_s": "s",
    "core.report.busy_s": "s",
    "core.peer.train_and_commit.busy_s": "s",
    "core.peer.train_and_commit.calls": "count",
    "core.peer.fetch_updates.busy_s": "s",
    "core.peer.fetch_updates.calls": "count",
    "core.peer.visible_submissions.busy_s": "s",
    "core.peer.visible_submissions.calls": "count",
    "core.peer.adopt.busy_s": "s",
    "core.offchain.put.busy_s": "s",
    "core.offchain.put.calls": "count",
    "core.offchain.put.bytes": "bytes",
    "core.offchain.get.busy_s": "s",
    "core.offchain.get.calls": "count",
    "core.offchain.decode_hit_ratio": "ratio",
    "nn.train.busy_s": "s",
    "nn.train.calls": "count",
    "nn.evaluate.busy_s": "s",
    "nn.evaluate.calls": "count",
    "nn.serialize.encode.busy_s": "s",
    "nn.serialize.encode.calls": "count",
    "nn.serialize.encode.bytes": "bytes",
    "nn.serialize.decode.busy_s": "s",
    "nn.serialize.decode.calls": "count",
    "nn.serialize.copy.busy_s": "s",
    "nn.serialize.copy.calls": "count",
    "fl.scoring.enumerate.busy_s": "s",
    "fl.scoring.enumerate.calls": "count",
    "fl.scoring.greedy.busy_s": "s",
    "fl.scoring.greedy.calls": "count",
    "fl.scoring.self_s": "s",
    "fl.scoring.evaluations": "count",
    "fl.scoring.cache_hit_ratio": "ratio",
    "fl.scoring.fingerprint.busy_s": "s",
    "fl.scoring.fingerprint.calls": "count",
    "fl.aggregation.fedavg.busy_s": "s",
    "fl.aggregation.fedavg.calls": "count",
    "chain.gateway.call.busy_s": "s",
    "chain.gateway.call.calls": "count",
    "chain.gateway.batch_call.busy_s": "s",
    "chain.gateway.batch_call.calls": "count",
    "chain.gateway.submit.busy_s": "s",
    "chain.gateway.submit.calls": "count",
    "chain.gateway.wait_for.busy_s": "s",
    "chain.gateway.wait_for.self_s": "s",
    "chain.gateway.wait_for.calls": "count",
    "chain.gateway.self_s": "s",
    "chain.gateway.read_bytes": "bytes",
    "chain.gateway.round_trip_ratio": "ratio",
    "chain.node.import_block.busy_s": "s",
    "chain.node.import_block.self_s": "s",
    "chain.node.import_block.calls": "count",
    "chain.node.build_block.busy_s": "s",
    "chain.node.build_block.calls": "count",
    "chain.node.call_contract.busy_s": "s",
    "chain.node.call_contract.calls": "count",
    "chain.node.sync_from.busy_s": "s",
    "chain.node.sync_from.calls": "count",
    "chain.state.state_root.busy_s": "s",
    "chain.state.state_root.calls": "count",
    "chain.state.accounts_hashed": "count",
    "chain.tx.signature_checks": "count",
    "chain.network.events.busy_s": "s",
    "chain.network.events.self_s": "s",
    "chain.network.events.calls": "count",
    "chain.network.messages_delivered": "count",
    "chain.network.messages_dropped": "count",
    "chain.network.batches_delivered": "count",
    "chain.network.blocks_mined": "count",
    "chain.network.reorgs": "count",
    "chain.network.syncs": "count",
    "chain.scale.execute.busy_s": "s",
    "chain.scale.execute.calls": "count",
    "chain.scale.clean_ratio": "ratio",
    "chain.scale.cold.put.busy_s": "s",
    "chain.scale.cold.put.calls": "count",
    "chain.scale.cold.get.busy_s": "s",
    "chain.scale.cold.get.calls": "count",
    "chain.scale.cold.dedup_ratio": "ratio",
    "chain.scale.cold.bytes": "bytes",
    "chain.scale.spilled_blocks": "count",
    "chain.scale.snap_syncs": "count",
    "utils.canonical_dumps.busy_s": "s",
    "utils.canonical_dumps.calls": "count",
    "utils.canonical_dumps.under.chain.gateway_s": "s",
    "utils.canonical_dumps.under.chain.node_s": "s",
    "utils.canonical_dumps.under.runtime_s": "s",
    "utils.canonical_dumps.under.other_s": "s",
    "utils.hash_object.busy_s": "s",
    "utils.hash_object.calls": "count",
    "faults.gateway.busy_s": "s",
    "faults.gateway.self_s": "s",
    "faults.injected": "count",
    "faults.retries": "count",
    "faults.deadline_misses": "count",
    "faults.gave_up": "count",
    "faults.backoff_sim_s": "sim_s",
    "faults.catch_ups": "count",
    "runtime.broker.launch.busy_s": "s",
    "runtime.tasks.busy_s": "s",
    "runtime.tasks.self_s": "s",
    "runtime.tasks.calls": "count",
    "runtime.wire.send.busy_s": "s",
    "runtime.wire.send.calls": "count",
    "runtime.wire.send.bytes": "bytes",
    "runtime.wire.recv.wait_s": "s",
    "runtime.wire.recv.calls": "count",
    "runtime.wire.recv.bytes": "bytes",
    "runtime.server.handle.busy_s": "s",
    "runtime.server.handle.calls": "count",
    "runtime.rpc_round_trips": "count",
    "runtime.worker_wire_s": "s",
    "trace.coverage_gap_share": "share",
    "trace.overhead_share": "share",
    "trace.spans": "count",
}

#: Units whose values are a function of the run alone, not of host speed.
EXACT_UNITS = frozenset({"count", "bytes", "ratio", "sim_s"})

#: The exception: worker replies carry wall-clock floats whose printed
#: length varies, so wire byte totals move by a byte or two between runs.
HOST_DEPENDENT = frozenset({"runtime.wire.send.bytes", "runtime.wire.recv.bytes"})

#: Metrics built from one span name's busy time and outermost-call count.
_BUSY_CALLS = (
    "data.sample",
    "core.peer.train_and_commit",
    "core.peer.fetch_updates",
    "core.peer.visible_submissions",
    "core.offchain.put",
    "core.offchain.get",
    "nn.train",
    "nn.evaluate",
    "nn.serialize.encode",
    "nn.serialize.decode",
    "nn.serialize.copy",
    "fl.scoring.enumerate",
    "fl.scoring.greedy",
    "fl.scoring.fingerprint",
    "fl.aggregation.fedavg",
    "chain.gateway.call",
    "chain.gateway.batch_call",
    "chain.gateway.submit",
    "chain.gateway.wait_for",
    "chain.node.import_block",
    "chain.node.build_block",
    "chain.node.call_contract",
    "chain.node.sync_from",
    "chain.state.state_root",
    "chain.network.events",
    "chain.scale.execute",
    "chain.scale.cold.put",
    "chain.scale.cold.get",
    "utils.canonical_dumps",
    "utils.hash_object",
    "runtime.tasks",
    "runtime.wire.send",
    "runtime.server.handle",
)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: Summary, counters: dict[str, float], overhead_share: float) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS`; a layer that did not run reads 0.

    ``counters`` are the program-side counts (see ``child.program_counters``).
    """
    values: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0.0)
    for name in _BUSY_CALLS:
        agg = summary.get(name)
        values[name + ".busy_s"] = agg.busy_s
        values[name + ".calls"] = agg.calls
    run = summary.get("scenarios.run")
    rounds = summary.get("core.round")
    values.update(
        {
            "scenarios.run.busy_s": run.busy_s,
            "scenarios.run.self_s": run.self_s,
            "core.deploy.busy_s": summary.get("core.deploy").busy_s,
            "core.round.busy_s": rounds.busy_s,
            "core.round.calls": rounds.calls,
            "core.round.self_s": rounds.self_s,
            "core.round.p50_s": statistics.median(rounds.durations) if rounds.durations else 0.0,
            "core.round.max_s": max(rounds.durations, default=0.0),
            "core.report.busy_s": summary.get("core.report").busy_s,
            "core.peer.adopt.busy_s": summary.get("core.peer.adopt").busy_s,
            "fl.scoring.self_s": summary.self_under("fl.scoring."),
            "chain.gateway.wait_for.self_s": summary.get("chain.gateway.wait_for").self_s,
            "chain.gateway.self_s": summary.self_under("chain.gateway."),
            "chain.node.import_block.self_s": summary.get("chain.node.import_block").self_s,
            "chain.network.events.self_s": summary.get("chain.network.events").self_s,
            "faults.gateway.busy_s": summary.get("faults.gateway").busy_s,
            "faults.gateway.self_s": summary.get("faults.gateway").self_s,
            "runtime.broker.launch.busy_s": summary.get("runtime.broker.launch").busy_s,
            "runtime.tasks.self_s": summary.get("runtime.tasks").self_s,
            "runtime.wire.recv.wait_s": summary.get("runtime.wire.recv").busy_s,
            "runtime.wire.recv.calls": summary.get("runtime.wire.recv").calls,
            "trace.coverage_gap_share": ratio(run.self_s, run.busy_s),
            "trace.overhead_share": overhead_share,
            "trace.spans": summary.spans,
        }
    )
    for bucket in ("chain.gateway", "chain.node", "runtime", "other"):
        values[f"utils.canonical_dumps.under.{bucket}_s"] = summary.attributed.get(bucket, 0.0)
    for name, value in counters.items():
        if name not in values:
            raise KeyError(f"unknown per-layer metric {name!r}")
        values[name] = value
    return values
