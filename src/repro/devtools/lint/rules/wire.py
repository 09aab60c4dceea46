"""``wire-discipline`` — process and socket machinery stays in the runtime.

The out-of-process runtime (:mod:`repro.runtime`) is the single place the
library touches real OS transport: sockets, selectors, frame packing, and
worker process spawning.  Anywhere else, a ``socket`` or ``subprocess``
import is a seam violation — the FL and chain layers must stay pure
simulation, reachable from any process via the wire, never reaching for
the OS themselves.

Process pools follow the same line: the runtime's long-lived wire workers
are the only way this code uses more than one core, so a
``multiprocessing`` or ``concurrent.futures`` import anywhere else is a
second fan-out growing back (the fork-per-round ``ProcessPoolExecutor``
that used to score combinations was one, the block executor's
speculation pool another).  There is no exception.

``pickle`` is banned across ``src/`` outright, runtime included: the wire
codec is canonical JSON + raw blobs precisely so frames are
language-neutral, diffable, and safe to parse from an untrusted peer.  A
pickle import is always the first step toward an undiffable,
arbitrary-code-execution wire format.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import Finding, LintContext, LintRule

#: Modules that only the runtime package may import.
TRANSPORT_MODULES = {"socket", "selectors", "struct", "subprocess"}

#: Process-pool modules (``concurrent`` is ``concurrent.futures``' root).
POOL_MODULES = {"multiprocessing", "concurrent"}

#: Serialization modules banned everywhere in ``src/``.
PICKLE_MODULES = {"pickle", "_pickle", "cPickle"}

RUNTIME_PREFIX = "src/repro/runtime/"


def _imported_roots(node: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Top-level module names bound by an import statement."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield node, alias.name.split(".", 1)[0]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        yield node, node.module.split(".", 1)[0]


class WireDisciplineRule(LintRule):
    rule_id = "wire-discipline"
    category = "seam"
    description = (
        "`socket`/`selectors`/`struct`/`subprocess` and "
        "`multiprocessing`/`concurrent.futures` only under "
        "`repro/runtime/`; `pickle` nowhere in `src/`"
    )
    rationale = (
        "the runtime package is the library's only OS-transport surface and "
        "its workers the only fan-out; the wire format is canonical JSON "
        "+ blobs, never pickle"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        in_runtime = ctx.path.startswith(RUNTIME_PREFIX)
        for node in ast.walk(ctx.tree):
            for stmt, root in _imported_roots(node):
                if root in PICKLE_MODULES:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"`{root}` import in library code — the wire codec is "
                        "canonical JSON + raw blobs (repro.runtime.wire); "
                        "pickle is banned across src/",
                    )
                elif root in TRANSPORT_MODULES and not in_runtime:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"`{root}` import outside repro/runtime/ — OS transport "
                        "and process machinery live only in the runtime "
                        "package; other layers reach the ledger through a "
                        "ChainGateway",
                    )
                elif root in POOL_MODULES and not in_runtime:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"`{root}` import outside repro/runtime/ — the wire "
                        "workers (`runtime=\"multiprocess\"`) are the only "
                        "fan-out; do not add a second process pool",
                    )
