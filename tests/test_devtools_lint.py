"""The invariant linter: rules, pragmas, baseline, CLI, and the repo gate.

Structure:

* per-rule fixture snippets — every rule has at least one true positive
  and one near-miss negative (code that *looks* like the bug but isn't);
* regression fixtures re-introducing the repo's actual historical bugs
  (the PR-1 chained comparison, the PR-3 config mutation, a raw ``.node``
  seam breach) and asserting the linter flags all three;
* engine behavior: pragma suppression, content-hash caching, parse
  errors;
* baseline add/expire semantics and the JSON output schema;
* CLI exit codes (0 clean / 1 findings / 2 usage error);
* the tier-1 gate: zero findings over the real ``src``/``tests``/
  ``benchmarks``/``examples`` trees, fast enough to run on every push.

Fixture code lives in string literals so the linter never mistakes the
fixtures themselves for violations when it sweeps ``tests/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.devtools.lint import (
    ALL_RULES,
    Baseline,
    Finding,
    LintEngine,
    default_rules,
)
from repro.devtools.lint.cli import main
from repro.devtools.lint.rules import (
    ConfigMutationRule,
    GlobalRngRule,
    JournalDisciplineRule,
    SeamRule,
    SuspiciousComparisonRule,
    WallClockRule,
    WireDisciplineRule,
    rules_by_id,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

LIB_PATH = "src/repro/core/somefile.py"  # in-scope path for src-only rules
CHAIN_PATH = "src/repro/chain/somefile.py"


def lint(source: str, path: str = LIB_PATH, rules=None) -> list[Finding]:
    engine = LintEngine(rules=rules if rules is not None else default_rules())
    return engine.lint_source(textwrap.dedent(source), path)


def rule_ids(findings) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# seam
# ---------------------------------------------------------------------------


class TestSeamRule:
    def lint_seam(self, source, path=LIB_PATH):
        return lint(source, path, rules=[SeamRule()])

    def test_attribute_access_flags(self):
        findings = self.lint_seam("height = peer.gateway.node.height\n")
        assert rule_ids(findings) == ["seam"]
        assert findings[0].line == 1

    def test_module_path_in_expression_is_not_flagged(self):
        # `repro.chain.node.Node` names the module on the way to a class.
        findings = self.lint_seam(
            """
            import repro.chain

            cls = repro.chain.node.Node
            """
        )
        # The *import* is clean and the dotted path isn't `.node` access,
        # but reaching the module through the package attribute is not an
        # import statement — only the attribute chain is exempt.
        assert rule_ids(findings) == []

    def test_direct_import_flags(self):
        findings = self.lint_seam("from repro.chain.node import Node\n")
        assert rule_ids(findings) == ["seam"]

    def test_aliased_module_import_flags(self):
        # The tokenizer-based scan this rule replaced missed this shape.
        findings = self.lint_seam("from repro.chain import node as ledger\n")
        assert rule_ids(findings) == ["seam"]

    def test_dotted_module_import_flags(self):
        findings = self.lint_seam("import repro.chain.node as chain_node\n")
        assert rule_ids(findings) == ["seam"]

    def test_relative_import_resolves_and_flags(self):
        findings = self.lint_seam(
            "from ..chain import node\n", path="src/repro/core/driver.py"
        )
        assert rule_ids(findings) == ["seam"]

    def test_near_miss_package_reexport_is_sanctioned(self):
        findings = self.lint_seam(
            "from repro.chain import GenesisSpec, Node, NodeConfig\n"
        )
        assert findings == []

    def test_near_miss_unrelated_node_module(self):
        # Importing some other `node` module is not the chain seam.
        findings = self.lint_seam("from networkx import node\n")
        assert findings == []

    def test_out_of_scope_paths_are_skipped(self):
        engine = LintEngine(rules=[SeamRule()])
        assert engine.lint_source(
            "x = gateway.node\n", "src/repro/chain/gateway.py"
        ) == []
        assert engine.lint_source("x = gateway.node\n", "tests/test_x.py") == []

    def test_examples_are_in_scope(self):
        engine = LintEngine(rules=[SeamRule()])
        assert rule_ids(
            engine.lint_source("x = gateway.node\n", "examples/demo.py")
        ) == ["seam"]


# ---------------------------------------------------------------------------
# global-rng
# ---------------------------------------------------------------------------


class TestGlobalRngRule:
    def lint_rng(self, source, path=LIB_PATH):
        return lint(source, path, rules=[GlobalRngRule()])

    def test_stdlib_random_flags(self):
        findings = self.lint_rng(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert rule_ids(findings) == ["global-rng"]

    def test_bare_import_from_random_flags(self):
        findings = self.lint_rng(
            """
            from random import randint as ri

            def pick():
                return ri(0, 10)
            """
        )
        assert rule_ids(findings) == ["global-rng"]

    def test_np_global_draw_flags(self):
        findings = self.lint_rng(
            """
            import numpy as np

            def noise(n):
                np.random.seed(0)
                return np.random.rand(n)
            """
        )
        assert rule_ids(findings) == ["global-rng", "global-rng"]

    def test_unseeded_default_rng_flags(self):
        findings = self.lint_rng(
            """
            import numpy as np

            def fresh():
                return np.random.default_rng()
            """
        )
        assert rule_ids(findings) == ["global-rng"]
        assert "entropy-seeded" in findings[0].message

    def test_near_miss_seeded_default_rng_is_fine(self):
        findings = self.lint_rng(
            """
            import numpy as np

            def fresh(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []

    def test_near_miss_generator_method_named_like_module_fn(self):
        # rng.random() on a Generator object is a named-stream draw.
        findings = self.lint_rng(
            """
            def draw(rng):
                return rng.random() + rng.shuffle([1, 2])
            """
        )
        assert findings == []

    def test_near_miss_annotation_only_use(self):
        findings = self.lint_rng(
            """
            import numpy as np

            def train(rng: np.random.Generator) -> None:
                pass
            """
        )
        assert findings == []

    def test_aliased_numpy_random_module_flags(self):
        findings = self.lint_rng(
            """
            from numpy import random as npr

            def noise(n):
                return npr.standard_normal(n)
            """
        )
        assert rule_ids(findings) == ["global-rng"]

    def test_out_of_scope_for_tests_tree(self):
        engine = LintEngine(rules=[GlobalRngRule()])
        src = "import random\nrandom.random()\n"
        assert engine.lint_source(src, "tests/test_x.py") == []
        assert engine.lint_source(src, "benchmarks/bench_x.py") == []


# ---------------------------------------------------------------------------
# wall-clock
# ---------------------------------------------------------------------------


class TestWallClockRule:
    def lint_clock(self, source, path=LIB_PATH):
        return lint(source, path, rules=[WallClockRule()])

    def test_time_time_flags(self):
        findings = self.lint_clock(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rule_ids(findings) == ["wall-clock"]

    def test_perf_counter_and_from_import_flag(self):
        findings = self.lint_clock(
            """
            from time import perf_counter

            def measure():
                return perf_counter()
            """
        )
        assert rule_ids(findings) == ["wall-clock"]

    def test_datetime_now_flags_both_import_styles(self):
        findings = self.lint_clock(
            """
            import datetime
            from datetime import datetime as dt

            def stamps():
                return datetime.datetime.now(), dt.utcnow()
            """
        )
        assert rule_ids(findings) == ["wall-clock", "wall-clock"]

    def test_near_miss_simulator_now_is_fine(self):
        # `sim.now()` / `self.clock.now` are the sanctioned clock.
        findings = self.lint_clock(
            """
            def deadline(sim, clock):
                return sim.now() + clock.now
            """
        )
        assert findings == []

    def test_near_miss_time_sleep_is_not_a_clock_read(self):
        findings = self.lint_clock(
            """
            import time

            def pause():
                time.sleep(0)
            """
        )
        assert findings == []

    def test_allowlisted_instrumentation_paths(self):
        engine = LintEngine(rules=[WallClockRule()])
        src = "import time\nstart = time.perf_counter()\n"
        for allowed in (
            "src/repro/scenarios/sweep.py",
            "src/repro/runtime/gateway.py",
            "benchmarks/bench_x.py",
        ):
            assert engine.lint_source(src, allowed) == []
        assert rule_ids(engine.lint_source(src, LIB_PATH)) == ["wall-clock"]
        assert rule_ids(engine.lint_source(src, "src/repro/chain/gateway.py")) == ["wall-clock"]


# ---------------------------------------------------------------------------
# journal-discipline
# ---------------------------------------------------------------------------


class TestJournalDisciplineRule:
    def lint_journal(self, source, path=CHAIN_PATH):
        return lint(source, path, rules=[JournalDisciplineRule()])

    def test_abandoned_mark_flags(self):
        findings = self.lint_journal(
            """
            def apply(state, tx):
                mark = state.checkpoint()
                state.transfer(tx.sender, tx.to, tx.value)
                return state.root()
            """
        )
        assert rule_ids(findings) == ["journal-discipline"]

    def test_branch_that_drops_the_mark_flags(self):
        findings = self.lint_journal(
            """
            def apply(state, ok):
                mark = state.checkpoint()
                if ok:
                    state.commit(mark)
                return state
            """
        )
        assert rule_ids(findings) == ["journal-discipline"]

    def test_try_with_bare_raise_handler_flags(self):
        findings = self.lint_journal(
            """
            def apply(state, tx):
                mark = state.checkpoint()
                try:
                    state.execute(tx)
                    state.commit(mark)
                except ValueError:
                    raise
            """
        )
        assert rule_ids(findings) == ["journal-discipline"]

    def test_near_miss_try_except_else_pairing_is_fine(self):
        findings = self.lint_journal(
            """
            def apply(state, tx):
                mark = state.checkpoint()
                try:
                    state.execute(tx)
                except ValueError:
                    state.rollback(mark)
                else:
                    state.commit(mark)
            """
        )
        assert findings == []

    def test_near_miss_finally_rollback_covers_all_paths(self):
        findings = self.lint_journal(
            """
            def probe(state, tx):
                mark = state.checkpoint()
                try:
                    return state.execute(tx)
                finally:
                    state.rollback(mark)
            """
        )
        assert findings == []

    def test_near_miss_mark_store_is_a_discharge(self):
        findings = self.lint_journal(
            """
            def snapshot(self, state, block_hash):
                mark = state.checkpoint()
                self._state_marks[block_hash] = mark
            """
        )
        assert findings == []

    def test_near_miss_immediate_store_is_never_tracked(self):
        findings = self.lint_journal(
            """
            def snapshot(self, state, block_hash):
                self._state_marks[block_hash] = state.checkpoint()
                if state.checkpoint() != self.base:
                    state.rollback(self.base)
            """
        )
        assert findings == []

    def test_near_miss_journal_disposal_discharges(self):
        findings = self.lint_journal(
            """
            def rebuild(state, blocks):
                mark = state.checkpoint()
                for block in blocks:
                    state.execute(block)
                state.flatten_journal()
            """
        )
        assert findings == []

    def test_discharge_inside_loop_does_not_cover_zero_trip(self):
        findings = self.lint_journal(
            """
            def rebuild(state, blocks):
                mark = state.checkpoint()
                for block in blocks:
                    state.rollback(mark)
            """
        )
        assert rule_ids(findings) == ["journal-discipline"]

    def test_out_of_scope_outside_chain(self):
        engine = LintEngine(rules=[JournalDisciplineRule()])
        src = "def f(state):\n    mark = state.checkpoint()\n"
        assert engine.lint_source(src, "src/repro/core/peer.py") == []
        assert rule_ids(engine.lint_source(src, CHAIN_PATH)) == [
            "journal-discipline"
        ]


# ---------------------------------------------------------------------------
# config-mutation
# ---------------------------------------------------------------------------


class TestConfigMutationRule:
    def lint_config(self, source, path=LIB_PATH):
        return lint(source, path, rules=[ConfigMutationRule()])

    def test_annotated_parameter_mutation_flags(self):
        findings = self.lint_config(
            """
            def tune(config: DecentralizedConfig, rounds):
                config.rounds = rounds
                return config
            """
        )
        assert rule_ids(findings) == ["config-mutation"]
        assert "dataclasses.replace" in findings[0].message

    def test_config_named_parameter_flags_augassign(self):
        findings = self.lint_config(
            """
            def bump(chain_config):
                chain_config.block_interval += 1.0
            """
        )
        assert rule_ids(findings) == ["config-mutation"]

    def test_optional_annotation_still_recognized(self):
        findings = self.lint_config(
            """
            from typing import Optional

            def tune(cc: Optional[ChainSpec]):
                cc.gateway = "batching"
            """
        )
        assert rule_ids(findings) == ["config-mutation"]

    def test_near_miss_replace_rebinding_is_fine(self):
        findings = self.lint_config(
            """
            import dataclasses

            def tune(config: DecentralizedConfig, rounds):
                config = dataclasses.replace(config, rounds=rounds)
                return config
            """
        )
        assert findings == []

    def test_near_miss_locally_built_config_is_fine(self):
        # Builder-pattern mutation of an object the function owns.
        findings = self.lint_config(
            """
            def make(rounds):
                cfg = DecentralizedConfig()
                cfg.rounds = rounds
                return cfg
            """
        )
        assert findings == []

    def test_near_miss_storing_config_on_self_is_fine(self):
        findings = self.lint_config(
            """
            class Driver:
                def __init__(self, config: DecentralizedConfig):
                    self.config = config
            """
        )
        assert findings == []

    def test_near_miss_subscript_read_of_config_attr(self):
        findings = self.lint_config(
            """
            def index(table, config: TrainConfig, value):
                table[config.rounds] = value
            """
        )
        assert findings == []


# ---------------------------------------------------------------------------
# suspicious-comparison
# ---------------------------------------------------------------------------


class TestSuspiciousComparisonRule:
    def lint_cmp(self, source, path="benchmarks/bench_x.py"):
        return lint(source, path, rules=[SuspiciousComparisonRule()])

    def test_membership_identity_chain_flags(self):
        findings = self.lint_cmp("bad = key in decoded is None\n")
        assert rule_ids(findings) == ["suspicious-comparison"]

    def test_identity_equality_chain_flags(self):
        findings = self.lint_cmp("bad = x == y is None\n")
        assert rule_ids(findings) == ["suspicious-comparison"]

    def test_applies_everywhere_including_src(self):
        engine = LintEngine(rules=[SuspiciousComparisonRule()])
        assert rule_ids(
            engine.lint_source("b = k in d is None\n", LIB_PATH)
        ) == ["suspicious-comparison"]

    def test_near_miss_uniform_chains_are_fine(self):
        findings = self.lint_cmp(
            """
            ok1 = 0 <= index < len(items) <= cap
            ok2 = a == b == c
            ok3 = x is y is None
            ok4 = (key in decoded) is None
            ok5 = key in decoded
            """
        )
        assert findings == []


class TestRetryDisciplineRule:
    def test_bare_except_around_gateway_call_flagged(self):
        findings = lint(
            """
            def push(peer, tx):
                try:
                    peer.gateway.submit(tx)
                except:
                    return None
            """
        )
        assert rule_ids(findings) == ["retry-discipline"]

    def test_swallowed_broad_except_flagged(self):
        findings = lint(
            """
            def read(gateway, contract):
                try:
                    return gateway.call(contract, "height")
                except Exception:
                    pass
            """
        )
        assert rule_ids(findings) == ["retry-discipline"]

    def test_broad_tuple_swallow_flagged(self):
        findings = lint(
            """
            def read(gateway, contract):
                try:
                    return gateway.call(contract, "height")
                except (ValueError, Exception):
                    ...
            """
        )
        assert rule_ids(findings) == ["retry-discipline"]

    def test_typed_pass_handler_is_fine(self):
        # The benign duplicate re-delivery idiom: a *named* error type
        # may be deliberately discarded.
        findings = lint(
            """
            def redeliver(gateway, tx):
                try:
                    gateway.submit(tx)
                except TransactionRejectedError:
                    pass
            """
        )
        assert findings == []

    def test_broad_except_with_real_handling_is_fine(self):
        findings = lint(
            """
            def push(peer, tx, log):
                try:
                    peer.gateway.submit(tx)
                except Exception as exc:
                    log.append(str(exc))
                    raise
            """
        )
        assert findings == []

    def test_try_without_gateway_call_out_of_scope(self):
        findings = lint(
            """
            def parse(raw):
                try:
                    return int(raw)
                except:
                    return 0
            """
        )
        assert findings == []

    def test_only_library_paths_in_scope(self):
        source = """
            def push(peer, tx):
                try:
                    peer.gateway.submit(tx)
                except:
                    return None
            """
        assert lint(source, path="tests/test_x.py") == []
        assert lint(source, path="benchmarks/bench_x.py") == []


class TestWireDisciplineRule:
    def test_socket_import_outside_runtime_flagged(self):
        findings = lint(
            """
            import socket

            def dial(host, port):
                return socket.create_connection((host, port))
            """
        )
        assert rule_ids(findings) == ["wire-discipline"]

    def test_subprocess_from_import_outside_runtime_flagged(self):
        findings = lint(
            """
            from subprocess import Popen

            def spawn(cmd):
                return Popen(cmd)
            """,
            path=CHAIN_PATH,
        )
        assert rule_ids(findings) == ["wire-discipline"]

    def test_function_local_selectors_import_flagged(self):
        # A lazy import inside a helper is the same seam breach.
        findings = lint(
            """
            def poll(sock):
                import selectors
                sel = selectors.DefaultSelector()
                return sel
            """
        )
        assert rule_ids(findings) == ["wire-discipline"]

    def test_transport_imports_allowed_in_runtime(self):
        findings = lint(
            """
            import selectors
            import socket
            import struct
            import subprocess
            """,
            path="src/repro/runtime/broker.py",
        )
        assert findings == []

    def test_process_pool_outside_runtime_flagged(self):
        findings = lint(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            """,
            path="src/repro/fl/scoring.py",
        )
        assert rule_ids(findings) == ["wire-discipline", "wire-discipline"]

    def test_process_pool_allowed_only_in_runtime(self):
        # The wire workers are the only fan-out: the block executor's old
        # speculation pool is a finding like any other.
        source = """
            import multiprocessing
            from concurrent.futures.process import BrokenProcessPool
            """
        assert lint(source, path="src/repro/runtime/broker.py") == []
        findings = lint(source, path="src/repro/chain/scale/executor.py")
        assert rule_ids(findings) == ["wire-discipline", "wire-discipline"]

    def test_pool_finding_points_at_the_wire_workers(self):
        (finding,) = lint("import multiprocessing\n", path=CHAIN_PATH)
        assert "wire workers" in finding.message and "only fan-out" in finding.message

    def test_pickle_flagged_even_in_runtime(self):
        findings = lint(
            """
            import pickle

            def encode(obj):
                return pickle.dumps(obj)
            """,
            path="src/repro/runtime/wire.py",
        )
        assert rule_ids(findings) == ["wire-discipline"]

    def test_pickle_from_import_flagged(self):
        findings = lint(
            """
            from pickle import dumps
            """
        )
        assert rule_ids(findings) == ["wire-discipline"]

    def test_near_miss_names_are_fine(self):
        # Modules that merely *contain* the banned names: a local module
        # called `socketutil`, an attribute named `struct`, and the
        # stdlib `dataclasses` (which is not `pickle` however you squint).
        findings = lint(
            """
            import dataclasses
            from repro.runtime import wire

            def pack(frame):
                return wire.encode_frame(frame.struct, ())
            """
        )
        assert findings == []

    def test_tests_and_benchmarks_out_of_scope(self):
        source = """
            import socket
            import pickle
            """
        assert lint(source, path="tests/test_x.py") == []
        assert lint(source, path="benchmarks/bench_x.py") == []


# ---------------------------------------------------------------------------
# io-discipline
# ---------------------------------------------------------------------------


SCALE_PATH = "src/repro/chain/scale/somefile.py"


class TestIoDisciplineRule:
    def test_tempfile_import_outside_scale_flagged(self):
        findings = lint(
            """
            import tempfile

            def scratch():
                return tempfile.TemporaryFile()
            """,
            path=CHAIN_PATH,
        )
        assert rule_ids(findings) == ["io-discipline"]

    def test_shutil_from_import_flagged(self):
        findings = lint("from shutil import copyfileobj\n")
        assert rule_ids(findings) == ["io-discipline"]

    def test_function_local_tempfile_import_flagged(self):
        # Lazy imports are the classic way disk I/O sneaks past review.
        findings = lint(
            """
            def spill(payload):
                import tempfile
                f = tempfile.TemporaryFile()
                f.write(payload)
                return f
            """
        )
        assert rule_ids(findings) == ["io-discipline"]

    def test_builtin_open_outside_scale_flagged(self):
        findings = lint(
            """
            def load(path):
                with open(path) as fh:
                    return fh.read()
            """
        )
        assert rule_ids(findings) == ["io-discipline"]

    def test_os_import_outside_scale_and_runtime_flagged(self):
        findings = lint("import os\n")
        assert rule_ids(findings) == ["io-discipline"]

    def test_file_io_allowed_in_scale(self):
        findings = lint(
            """
            import os
            import tempfile

            def segment():
                f = tempfile.TemporaryFile()
                return f, os.fstat(f.fileno())
            """,
            path=SCALE_PATH,
        )
        assert findings == []

    def test_os_and_pathlib_allowed_in_runtime(self):
        findings = lint(
            """
            import os
            from pathlib import Path
            """,
            path="src/repro/runtime/worker.py",
        )
        assert findings == []

    def test_tempfile_flagged_even_in_runtime(self):
        # The runtime carve-out covers process plumbing, not spill files.
        findings = lint(
            "import tempfile\n", path="src/repro/runtime/worker.py"
        )
        assert rule_ids(findings) == ["io-discipline"]

    def test_near_miss_names_are_fine(self):
        # A method *named* open, an attribute named os, and a module that
        # merely contains a banned name are not file I/O.
        findings = lint(
            """
            from repro.chain.scale import ColdStore

            def revive(store, key):
                blob = store.get(key)
                return blob.os if hasattr(blob, "os") else store.open_count
            """
        )
        assert findings == []

    def test_open_method_call_not_flagged(self):
        findings = lint(
            """
            def start(gateway):
                return gateway.open()
            """
        )
        assert findings == []

    def test_devtools_and_tests_out_of_scope(self):
        source = """
            import os
            import tempfile

            def read(path):
                with open(path) as fh:
                    return fh.read()
            """
        assert lint(source, path="src/repro/devtools/lint/engine.py") == []
        assert lint(source, path="tests/test_x.py") == []
        assert lint(source, path="benchmarks/bench_x.py") == []


# ---------------------------------------------------------------------------
# Historical-bug regression fixtures (acceptance criterion)
# ---------------------------------------------------------------------------


class TestHistoricalBugRegressions:
    """Re-introduce the motivating bugs verbatim; the linter must flag all."""

    def test_pr1_chained_comparison_bug(self):
        # serialize.py's always-False guard, fixed in PR 1.
        findings = lint(
            """
            def decode(decoded):
                if "weights" in decoded is None:
                    raise ValueError("missing weights")
                return decoded["weights"]
            """,
            path="src/repro/nn/serialize.py",
        )
        assert "suspicious-comparison" in rule_ids(findings)

    def test_pr3_config_mutation_bug(self):
        # The policy= override that wrote through the caller's
        # chain_config, fixed in PR 3 with dataclasses.replace.
        findings = lint(
            """
            def apply_policy(chain_config, policy):
                chain_config.mode = policy.mode
                chain_config.enable_reputation = policy.enable_reputation
                return chain_config
            """,
            path="src/repro/scenarios/runner.py",
        )
        assert rule_ids(findings) == ["config-mutation", "config-mutation"]

    def test_raw_node_seam_breach(self):
        # The breach class PR 5's seam test was built to catch.
        findings = lint(
            """
            def fetch_height(peer):
                return peer.gateway.node.height
            """,
            path="src/repro/core/peer.py",
        )
        assert rule_ids(findings) == ["seam"]


# ---------------------------------------------------------------------------
# Engine: pragmas, caching, parse errors
# ---------------------------------------------------------------------------


class TestEngineBehavior:
    def test_pragma_suppresses_named_rule(self):
        findings = lint(
            "h = gateway.node.height  # repro-lint: disable=seam\n"
        )
        assert findings == []

    def test_pragma_disable_all(self):
        findings = lint(
            "h = gateway.node.height  # repro-lint: disable=all\n"
        )
        assert findings == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        findings = lint(
            "h = gateway.node.height  # repro-lint: disable=wall-clock\n"
        )
        assert rule_ids(findings) == ["seam"]

    def test_pragma_on_other_line_does_not_suppress(self):
        findings = lint(
            """
            # repro-lint: disable=seam
            h = gateway.node.height
            """
        )
        assert rule_ids(findings) == ["seam"]

    def test_pragma_inside_string_literal_is_inert(self):
        findings = lint(
            's = gateway.node.height, "# repro-lint: disable=seam"\n'
        )
        assert rule_ids(findings) == ["seam"]

    def test_parse_error_is_a_finding_not_a_crash(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == ["parse-error"]

    def test_content_hash_cache_hits_on_identical_rerun(self, tmp_path):
        engine = LintEngine(rules=[SeamRule()], root=tmp_path)
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        mod = pkg / "mod.py"
        mod.write_text("h = gateway.node.height\n")
        first = engine.lint_paths([mod])
        assert engine.stats.parses == 1
        second = engine.lint_paths([mod])
        assert second == first and rule_ids(first) == ["seam"]
        assert engine.stats.parses == 1
        assert engine.stats.cache_hits == 1
        mod.write_text("h = gateway.height()\n")  # edit invalidates
        assert engine.lint_paths([mod]) == []
        assert engine.stats.parses == 2

    def test_duplicate_and_overlapping_paths_checked_once(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        mod = pkg / "mod.py"
        mod.write_text("h = gateway.node.height\n")
        engine = LintEngine(rules=[SeamRule()], root=tmp_path)
        findings = engine.lint_paths([tmp_path / "src", mod, mod])
        assert rule_ids(findings) == ["seam"]
        assert engine.stats.files == 1

    def test_every_rule_declares_catalog_metadata(self):
        for cls in ALL_RULES:
            assert cls.rule_id and cls.category
            assert cls.description and cls.rationale
        assert len(rules_by_id()) == len(ALL_RULES) >= 6


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def finding(self, message="m", line=3):
        return Finding(path="src/repro/x.py", line=line, rule="seam", message=message)

    def test_baselined_finding_is_suppressed(self):
        f = self.finding()
        baseline = Baseline([{"path": f.path, "rule": f.rule, "message": f.message}])
        result = baseline.partition([f])
        assert result.new == [] and result.suppressed == [f] and result.stale == []

    def test_line_drift_still_matches(self):
        baseline = Baseline(
            [{"path": "src/repro/x.py", "rule": "seam", "message": "m", "line": 3}]
        )
        result = baseline.partition([self.finding(line=40)])
        assert result.new == []

    def test_duplicated_violation_exceeds_budget(self):
        f = self.finding()
        baseline = Baseline([{"path": f.path, "rule": f.rule, "message": f.message}])
        result = baseline.partition([f, self.finding(line=9)])
        assert len(result.new) == 1 and len(result.suppressed) == 1

    def test_fixed_finding_goes_stale(self):
        baseline = Baseline(
            [{"path": "src/repro/x.py", "rule": "seam", "message": "m"}]
        )
        result = baseline.partition([])
        assert result.new == [] and len(result.stale) == 1

    def test_write_then_load_roundtrip(self, tmp_path):
        f = self.finding()
        path = tmp_path / "baseline.json"
        Baseline.write(path, [f])
        result = Baseline.load(path).partition([f])
        assert result.new == [] and result.stale == []

    def test_missing_file_is_empty_and_bad_entry_rejected(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").entries == []
        with pytest.raises(ValueError):
            Baseline([{"path": "x"}])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def violation_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("h = gateway.node.height\n")
    return tmp_path


class TestCli:
    def run_cli(self, args, capsys):
        code = main(args)
        return code, capsys.readouterr().out

    def test_exit_zero_and_text_summary_on_clean_tree(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        code, out = self.run_cli(
            [str(tmp_path / "src"), "--root", str(tmp_path)], capsys
        )
        assert code == 0
        assert "0 finding(s)" in out

    def test_exit_one_and_finding_line_on_violation(self, violation_tree, capsys):
        code, out = self.run_cli(
            [str(violation_tree / "src"), "--root", str(violation_tree)], capsys
        )
        assert code == 1
        assert "src/repro/core/bad.py:1: [seam]" in out

    def test_json_schema(self, violation_tree, capsys):
        code, out = self.run_cli(
            [
                str(violation_tree / "src"),
                "--root",
                str(violation_tree),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert set(payload) == {
            "version",
            "files",
            "findings",
            "baselined",
            "stale_baseline",
        }
        assert payload["version"] == 1 and payload["files"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "rule", "message"}
        assert finding["rule"] == "seam" and finding["line"] == 1

    def test_annotate_emits_github_error_commands(self, violation_tree, capsys):
        code, out = self.run_cli(
            [
                str(violation_tree / "src"),
                "--root",
                str(violation_tree),
                "--annotate",
            ],
            capsys,
        )
        assert code == 1
        assert "::error file=src/repro/core/bad.py,line=1," in out
        assert "title=repro-lint seam::" in out

    def test_baseline_suppresses_and_write_baseline_bootstraps(
        self, violation_tree, capsys
    ):
        baseline = violation_tree / "baseline.json"
        args = [
            str(violation_tree / "src"),
            "--root",
            str(violation_tree),
            "--baseline",
            str(baseline),
        ]
        code, out = self.run_cli(args + ["--write-baseline"], capsys)
        assert code == 0 and "wrote 1 finding(s)" in out
        code, out = self.run_cli(args, capsys)
        assert code == 0 and "1 baselined" in out

    def test_stale_baseline_reported_but_not_fatal(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                [{"path": "src/repro/ok.py", "rule": "seam", "message": "gone"}]
            )
        )
        code, out = self.run_cli(
            [
                str(tmp_path / "src"),
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ],
            capsys,
        )
        assert code == 0
        assert "stale baseline entry" in out

    def test_exit_two_on_unknown_rule(self, capsys):
        code, out = self.run_cli(["--rules", "no-such-rule"], capsys)
        assert code == 2 and "unknown rule" in out

    def test_exit_two_on_missing_path(self, capsys):
        code, out = self.run_cli(["definitely/not/a/path"], capsys)
        assert code == 2 and "no such path" in out

    def test_exit_two_on_unreadable_baseline(self, violation_tree, capsys):
        bad = violation_tree / "bad-baseline.json"
        bad.write_text("{not json")
        code, out = self.run_cli(
            [
                str(violation_tree / "src"),
                "--root",
                str(violation_tree),
                "--baseline",
                str(bad),
            ],
            capsys,
        )
        assert code == 2 and "unreadable baseline" in out

    def test_rules_filter_runs_only_named_rules(self, violation_tree, capsys):
        code, out = self.run_cli(
            [
                str(violation_tree / "src"),
                "--root",
                str(violation_tree),
                "--rules",
                "wall-clock",
            ],
            capsys,
        )
        assert code == 0

    def test_list_rules_prints_catalog(self, capsys):
        code, out = self.run_cli(["--list-rules"], capsys)
        assert code == 0
        for cls in ALL_RULES:
            assert cls.rule_id in out

    def test_module_entrypoint_runs(self, violation_tree):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.devtools.lint",
                str(violation_tree / "src"),
                "--root",
                str(violation_tree),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "[seam]" in proc.stdout


# ---------------------------------------------------------------------------
# The repo gate (tier-1): the real tree is clean, and fast
# ---------------------------------------------------------------------------


class TestRepoGate:
    def test_src_tree_has_zero_findings_with_empty_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.entries == [], "the shipped baseline must stay empty"
        engine = LintEngine(root=REPO_ROOT)
        findings = engine.lint_paths([REPO_ROOT / "src"])
        result = baseline.partition(findings)
        assert result.new == [], "\n".join(f.render() for f in result.new)

    def test_whole_repo_is_clean(self):
        engine = LintEngine(root=REPO_ROOT)
        findings = engine.lint_paths(
            [
                REPO_ROOT / "src",
                REPO_ROOT / "tests",
                REPO_ROOT / "benchmarks",
                REPO_ROOT / "examples",
            ]
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_full_sweep_is_fast_enough_to_gate_every_push(self):
        # The linter must stay cheap: single parse per file plus the
        # content-hash cache keep a full cold sweep well under ~5s.
        engine = LintEngine(root=REPO_ROOT)
        start = time.perf_counter()
        engine.lint_paths(
            [
                REPO_ROOT / "src",
                REPO_ROOT / "tests",
                REPO_ROOT / "benchmarks",
                REPO_ROOT / "examples",
            ]
        )
        cold = time.perf_counter() - start
        start = time.perf_counter()
        engine.lint_paths([REPO_ROOT / "src"])
        warm = time.perf_counter() - start
        assert cold < 5.0, f"cold lint sweep took {cold:.2f}s"
        assert warm < cold and engine.stats.cache_hits > 0
