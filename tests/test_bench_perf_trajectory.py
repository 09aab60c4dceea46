"""``BENCH_perf.json`` is the benchmark's recorded trajectory: one row per
change to ``src/``, each the medians of ``BENCHMARK.json``'s command at
seed 7.  This checks the file's shape and that its rows are in PR order;
it gates no speed — a regression or a win is a diff of two rows.
"""

import json
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def test_rows_follow_the_schema_in_pr_order():
    trajectory = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    workloads = [w["name"] for w in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert trajectory["metrics"] == list(METRICS)
    assert trajectory["workloads"] == workloads
    rows = trajectory["rows"]
    assert rows, "the trajectory has no rows"
    for index, row in enumerate(rows):
        where = f"row {index} (PR {row.get('pr')})"
        assert set(row) == {"pr", "commit", "platform_key", "seed", "source", "results"}, where
        assert isinstance(row["pr"], int) and row["pr"] > 0, where
        # Only the newest rows may name no commit: the commit adding a row
        # cannot name itself, and the next row's change fills it in.
        if row["commit"] is None:
            assert row["pr"] == rows[-1]["pr"], where
        else:
            assert re.fullmatch(r"[0-9a-f]{7,40}", row["commit"]), where
        assert row["platform_key"] is None or isinstance(row["platform_key"], str), where
        assert row["seed"] == 7, where
        assert isinstance(row["source"], str) and row["source"], where
        assert list(row["results"]) == workloads, where
        for workload, metrics in row["results"].items():
            assert set(metrics) == set(METRICS), f"{where} {workload}"
            for name, value in metrics.items():
                if value is None:  # not reported for that PR
                    continue
                assert set(value) == {"median", "n", "iqr"}, f"{where} {workload}.{name}"
                assert value["median"] > 0, f"{where} {workload}.{name}"
                assert value["n"] is None or (isinstance(value["n"], int) and value["n"] >= 1)
                assert value["iqr"] is None or value["iqr"] >= 0, f"{where} {workload}.{name}"
    order = [row["pr"] for row in rows]
    assert order == sorted(order), f"rows out of PR order: {order}"
