"""Timing-free checks of the perf harness (collected by plain ``pytest``).

Covers the span arithmetic on synthetic spans, wrapper install/restore, and
one ``--smoke`` pass over all six workloads whose printed names must match
``BENCHMARK.json`` exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from tracing import LAYER_METRICS, Tracer, layer_metrics, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spans(*rows):
    """[name, start, end, parent] rows -> span records of run 1."""
    return [[name, start, end, parent, 1] for name, start, end, parent in rows]


class TestSpanArithmetic:
    def test_nested_self_time_excludes_children(self):
        summary = summarize(_spans(("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1)))
        assert summary.get("a").busy_s == 10.0
        assert summary.get("a").self_s == 7.0
        assert summary.get("b").self_s == 2.0
        assert summary.get("c").self_s == 1.0
        total_self = sum(agg.self_s for agg in summary.by_name.values())
        assert total_self == summary.get("a").busy_s

    def test_siblings_add_up(self):
        summary = summarize(
            _spans(("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0), ("b", 4.0, 8.0, 0), ("b", 11.0, 12.0, -1))
        )
        assert summary.get("b").busy_s == 7.0
        assert summary.get("b").calls == 3
        assert summary.get("a").self_s == 4.0
        assert sorted(summary.get("b").durations) == [1.0, 2.0, 4.0]

    def test_recursion_counts_the_outermost_span_once(self):
        summary = summarize(
            _spans(("r", 0.0, 8.0, -1), ("r", 1.0, 7.0, 0), ("x", 2.0, 3.0, 1), ("r", 4.0, 6.0, 1))
        )
        agg = summary.get("r")
        assert (agg.busy_s, agg.calls) == (8.0, 1)
        assert agg.self_s == 2.0 + 3.0 + 2.0
        assert summary.get("x").busy_s == 1.0

    def test_same_name_after_the_outer_one_closed_is_outermost_again(self):
        summary = summarize(_spans(("r", 0.0, 2.0, -1), ("r", 0.5, 1.0, 0), ("r", 3.0, 4.0, -1)))
        assert (summary.get("r").busy_s, summary.get("r").calls) == (3.0, 2)

    def test_canonical_dumps_is_attributed_to_the_enclosing_layer(self):
        dumps = tracing.ATTRIBUTED
        summary = summarize(
            _spans(
                ("chain.gateway.call", 0.0, 5.0, -1),
                (dumps, 1.0, 2.0, 0),
                ("chain.node.import_block", 6.0, 9.0, -1),
                ("utils.hash_object", 6.5, 8.5, 2),
                (dumps, 7.0, 8.0, 3),
                ("runtime.wire.send", 10.0, 11.0, -1),
                (dumps, 10.0, 10.5, 5),
                (dumps, 12.0, 12.25, -1),
            )
        )
        assert summary.attributed == {
            "chain.gateway": 1.0, "chain.node": 1.0, "runtime": 0.5, "other": 0.25,
        }
        assert sum(summary.attributed.values()) == summary.get(dumps).busy_s

    def test_merge_sums_both_sides(self):
        one = summarize(_spans(("a", 0.0, 1.0, -1)))
        two = summarize(_spans(("a", 0.0, 2.0, -1), ("b", 0.5, 1.0, 0)))
        merged = one.merge(two)
        assert merged.get("a").busy_s == 3.0 and merged.get("a").calls == 2
        assert merged.spans == 3

    def test_layer_metrics_reports_every_name_and_zero_for_absent_layers(self):
        values = layer_metrics(summarize([]), {"faults.retries": 4}, overhead_share=0.1)
        assert list(values) == list(LAYER_METRICS)
        assert values["faults.retries"] == 4
        assert values["runtime.wire.send.busy_s"] == 0
        with pytest.raises(KeyError):
            layer_metrics(summarize([]), {"no.such.metric": 1}, overhead_share=0.0)


class TestInstall:
    def _originals(self):
        import repro.core.peer
        import repro.nn
        import repro.nn.serialize
        import repro.utils.serialization

        return {
            "method": vars(repro.core.peer.FullPeer)["adopt"],
            "function": repro.utils.serialization.canonical_dumps,
            "imported_by_name": repro.nn.serialize.canonical_dumps,
            "reexported": repro.nn.weights_to_bytes,
        }

    def test_wrappers_record_and_are_removed_on_exit(self):
        from repro.utils import serialization

        before = self._originals()
        tracer = Tracer()
        with tracer.installed():
            during = self._originals()
            assert all(during[key] is not before[key] for key in before)
            serialization.canonical_dumps({"a": 1})
        assert self._originals() == before
        assert [span[0] for span in tracer.spans] == ["utils.canonical_dumps"]
        serialization.canonical_dumps({"a": 1})
        assert len(tracer.spans) == 1

    def test_wrappers_are_removed_when_the_body_raises(self):
        before = self._originals()
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.installed():
                raise RuntimeError("boom")
        assert self._originals() == before
        with tracer.installed():  # and the tracer can be installed again
            pass

    def test_a_raising_call_still_closes_its_span(self):
        from repro.utils import serialization

        tracer = Tracer()
        with tracer.installed():
            with pytest.raises(Exception):
                serialization.canonical_dumps(object())
        (span,) = tracer.spans
        assert span[2] >= span[1] > 0.0
        assert tracer.take(1) == [span]

    def test_tracing_keeps_the_scoring_engine_on_its_incremental_path(self):
        """The engine compares its aggregator to ``fedavg`` by identity; a
        replaced reference would move a traced run onto the generic path."""
        import numpy as np
        from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
        from repro.fl.scoring import CombinationEngine
        from repro.nn.models import build_model

        rng = np.random.default_rng(0)
        test_set = SyntheticImageDataset(SyntheticSpec()).sample(4, rng)
        with Tracer().installed():
            engine = CombinationEngine(build_model("simple_nn", rng), test_set)
        assert engine._incremental

    def test_nested_install_is_refused(self):
        tracer = Tracer()
        with tracer.installed():
            with pytest.raises(RuntimeError):
                with tracer.installed():
                    pass


class TestBenchmarkJson:
    @pytest.fixture(scope="class")
    def benchmark_json(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_limits_and_names(self, benchmark_json):
        assert set(benchmark_json) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert 2 <= len(benchmark_json["workloads"]) <= 8
        assert 1 <= len(benchmark_json["end_to_end"]) <= 16
        assert 1 <= len(benchmark_json["per_layer"]) <= 128
        names = [
            entry["name"]
            for key in ("workloads", "end_to_end", "per_layer")
            for entry in benchmark_json[key]
        ]
        assert all(NAME.match(name) for name in names)
        assert len(names) == len(set(names))
        assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
        assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
            m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"
        ).items()

    def test_per_layer_matches_the_tracer(self, benchmark_json):
        recorded = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
        assert recorded == LAYER_METRICS

    def test_workloads_match_the_builders(self, benchmark_json):
        from workloads import WORKLOADS

        assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)


def test_smoke_run_prints_exactly_the_recorded_names(tmp_path):
    """One ``--smoke`` pass: schema, names, and traced == untraced outputs."""
    out = tmp_path / "smoke.json"
    spans = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(out),
         "--trace-out", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text(encoding="utf-8"))
    benchmark_json = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(report["workloads"]) == [w["name"] for w in benchmark_json["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    for name, entry in report["workloads"].items():
        # The child refuses (a "problem") when its traced and untraced
        # passes disagree on result_digest or any count.
        assert entry["problems"] == [], name
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} == end_to_end
        assert {k: v["unit"] for k, v in entry["layers"].items()} == per_layer
        assert entry["layers"]["trace.spans"]["value"] > 0
        for metric in list(end_to_end) + list(per_layer):
            assert re.search(rf"^\s+{re.escape(metric)}\s", done.stdout, re.M), metric
    by_name = report["workloads"]
    assert by_name["cohort25_mp2"]["equivalence_digest"] == by_name["cohort25"]["equivalence_digest"]
    assert by_name["cohort25_mp2"]["layers"]["runtime.rpc_round_trips"]["value"] > 0
    assert by_name["cohort25"]["layers"]["runtime.rpc_round_trips"]["value"] == 0
    assert by_name["roster300_churn"]["layers"]["chain.scale.cold.put.calls"]["value"] > 0
    assert by_name["cohort25_lossy"]["layers"]["faults.injected"]["value"] > 0
    first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "run"}
