"""``wall-clock`` — simulated time only, outside the instrumentation set.

The simulator replaced the paper's VM wall clocks with a deterministic
:class:`~repro.utils.clock.SimClock`; experiment results must be a pure
function of the seed.  A stray ``time.time()`` or ``datetime.now()`` in
library code leaks host time into results (timestamps, deadlines, block
intervals) and breaks bit-identical regeneration.

An explicit allowlist keeps the sanctioned *instrumentation* reads:
``scenarios/sweep.py`` (sweep wall-time reporting) and
``runtime/gateway.py`` (per-RPC wire latency in GatewayStats, excluded
from result payloads).
Benchmarks and tests are out of scope — timing things is their job.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import Finding, LintContext, LintRule
from repro.devtools.lint.rules.common import ImportMap

ALLOWED_PATHS = {
    "src/repro/scenarios/sweep.py",
    "src/repro/runtime/gateway.py",
}

# Clock reads on the stdlib time module.
TIME_READS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
    "localtime",
    "gmtime",
}

# Now-reads on the datetime/date classes.
DATETIME_READS = {
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(LintRule):
    rule_id = "wall-clock"
    category = "determinism"
    description = (
        "no wall-clock reads (`time.time()`, `datetime.now()`, …) outside "
        "the allowlisted instrumentation modules"
    )
    rationale = (
        "results must be a pure function of the seed; the simulator owns "
        "time (SimClock), host clocks only appear in instrumentation"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/") and path not in ALLOWED_PATHS

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve_call_target(node.func)
            if target is None:
                continue
            bad = (
                target in DATETIME_READS
                or (
                    target.startswith("time.")
                    and target[len("time."):] in TIME_READS
                )
            )
            if bad:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read `{target}()` outside the instrumentation "
                    "allowlist — use the simulator clock (Simulator/SimClock), "
                    "or add the module to the sanctioned timing set",
                )
