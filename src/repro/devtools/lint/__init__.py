"""AST-based invariant linter: the repo's contracts as machine checks.

Every rule here is distilled from a bug this repo actually had (or an
invariant its equivalence suites depend on).  Unit tests patrol values;
these rules patrol *shapes* that no single test exercises — and they run
over the whole tree on every push (``lint`` job in CI, tier-1 test
``tests/test_devtools_lint.py``).

Rule catalog
------------

``seam`` (architecture)
    No ``.node`` attribute access and no ``repro.chain.node`` imports
    outside ``repro/chain/`` — the FL layer programs against the
    :class:`~repro.chain.gateway.ChainGateway` protocol (PR 5).  Replaces
    the tokenizer scan that lived in ``tests/test_chain_gateway.py`` and
    additionally catches aliased imports (``from repro.chain import node
    as n``).  Scope: ``src/repro/`` (minus ``chain/``) and ``examples/``.

``global-rng`` (determinism)
    No stdlib ``random.*`` calls, no legacy module-level ``np.random.*``
    calls, no unseeded ``np.random.default_rng()`` — stochastic code
    draws from named streams (:mod:`repro.utils.rng`).  Scope: ``src/``.

``wall-clock`` (determinism)
    No host-clock reads (``time.time()``, ``time.perf_counter()``,
    ``datetime.now()``, …) outside the sanctioned instrumentation set
    (``scenarios/sweep.py``, ``runtime/gateway.py``).
    Results are a pure function of the seed; the simulator owns time.
    Scope: ``src/``.

``journal-discipline`` (chain-state)
    Flow-sensitive: every ``mark = <state>.checkpoint()`` must reach a
    ``commit()``/``rollback()``/mark-store (or explicit journal disposal)
    on *all* paths, including through ``try``/``finally`` (PR 2's
    undo-log journal).  Scope: ``src/repro/chain/``.

``config-mutation`` (immutability)
    No attribute assignment on config-dataclass parameters
    (``ScenarioSpec``, ``DecentralizedConfig`` and the ``ChainSpec``/
    ``FaultSpec``/``ParticipationSpec`` they hold, …) —
    copy with ``dataclasses.replace`` (the PR-3 ``chain_config`` mutation
    bug).  Scope: ``src/``.

``suspicious-comparison`` (correctness)
    No chained comparisons mixing membership/identity with other operator
    categories — the PR-1 ``"weights" in decoded is None`` always-False
    bug class.  Scope: everywhere.

``retry-discipline`` (robustness)
    No bare ``except:`` and no swallowed ``except Exception: pass``
    around gateway calls — gateway failures carry typed retry/degrade
    semantics (:mod:`repro.faults`, PR 7) and must be caught by name.
    Scope: ``src/repro/``.

``wire-discipline`` (seam)
    ``socket``/``selectors``/``struct``/``subprocess`` imports only under
    ``repro/runtime/`` — the out-of-process runtime is the library's one
    OS-transport surface; ``multiprocessing``/``concurrent.futures`` only
    there too — its workers are the only fan-out; and ``pickle`` nowhere
    in ``src/`` (the wire codec is canonical JSON + raw blobs).  Scope:
    ``src/``.

``io-discipline`` (seam)
    ``tempfile``/``shutil`` imports and builtin ``open()`` calls only
    under ``repro/chain/scale/`` — the cold store (PR 10) is the
    library's one file-I/O surface; ``os``/``pathlib``/``io`` also
    tolerated under ``repro/runtime/`` for process plumbing.  Scope:
    ``src/`` minus ``repro/devtools/`` (the linter reads files).

Suppressing a finding
---------------------

Append ``# repro-lint: disable=<rule>`` (or ``disable=all``) to the
offending line; the pragma must be a comment on the exact line the
finding points at.  Grandfathered findings can instead live in a JSON
baseline (``--baseline FILE``, regenerate with ``--write-baseline``);
the shipped ``lint-baseline.json`` is empty and should stay that way.

Running it
----------

``python -m repro.devtools.lint src tests benchmarks examples`` — see
:mod:`repro.devtools.lint.cli` for formats, exit codes, and GitHub
annotation output, and :mod:`repro.devtools.lint.rules` for how to add a
rule.
"""

from repro.devtools.lint.baseline import Baseline, BaselineResult
from repro.devtools.lint.cli import main
from repro.devtools.lint.engine import (
    Finding,
    LintContext,
    LintEngine,
    LintRule,
)
from repro.devtools.lint.rules import ALL_RULES, default_rules, rules_by_id

__all__ = [
    "ALL_RULES",
    "Baseline",
    "BaselineResult",
    "Finding",
    "LintContext",
    "LintEngine",
    "LintRule",
    "default_rules",
    "main",
    "rules_by_id",
]
