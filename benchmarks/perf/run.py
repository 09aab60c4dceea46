"""The repo's one benchmark: six workloads, end-to-end and per-layer metrics.

Two ways to call it, both from the repository root:

* one measured run, as ``BENCHMARK.json``'s ``command`` is run::

      python3 benchmarks/perf/run.py --workload cohort25 --seed 7 --seconds 12 --trace 0

  prints one JSON object as the last line: ``correct``, ``attempted``,
  ``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
  metrics of a traced run (``--trace 1``);

* the whole report, for people::

      python3 benchmarks/perf/run.py [--workload NAME]... [--repeats N] [--seed S]
          [--seconds S] [--smoke] [--json FILE] [--trace-out FILE] [--write-goldens]

  runs ``--repeats`` untraced measured runs and one traced run per workload
  and prints every metric by name with its unit, ``n``, min and max.

Every measured run is a fresh ``child.py`` process with the BLAS pools
pinned to one thread; see README.md for the process model.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
#: Children get this as ``TMPDIR``: the cold store's segment file is an
#: anonymous temporary file, and a run may write only inside its checkout.
SCRATCH = ROOT / ".bench_tmp"

#: Thread pools pinned in every child (and inherited by runtime workers), so
#: the load of a run comes from one process, plus the workers it asks for.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up is timed in this many extra processes per untraced run, so that
#: ``setup_s`` is a median of three.
EXTRA_SETUPS = 2

#: Trace health gates: above these the breakdown is reported with a warning.
MAX_COVERAGE_GAP = 0.15
MAX_OVERHEAD = 0.30


def load_benchmark() -> dict:
    """The checked-in ``BENCHMARK.json`` (names, units, bounds, run length)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class ChildFailed(Exception):
    """A measurement process crashed, timed out or printed no report."""


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    trace: int = 0,
    smoke: bool = False,
    setup_only: bool = False,
    trace_out: Optional[str] = None,
) -> dict:
    """Run one ``child.py`` to completion and return its report.

    The child gets its own process group, so a timeout also stops any
    runtime workers it started; the group is always waited for.
    """
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH", "")]))
    SCRATCH.mkdir(exist_ok=True)
    env["TMPDIR"] = str(SCRATCH)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", trace_out]
    # Five times the expected wall, and short enough that the three children
    # of one measured run end inside the 180 s it may take even if all hang.
    timeout = 30.0 if setup_only else min(110.0, 5.0 * seconds + 50.0)
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except BaseException as exc:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        stdout, stderr = process.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        raise ChildFailed(f"{workload}: timed out after {timeout:.0f}s\n{stderr[-2000:]}") from exc
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload}: child exited with code {process.returncode}\n{stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False,
            trace_out: Optional[str] = None) -> dict:
    """One measured run: the child's report plus its set-up samples."""
    setups = []
    if not trace and not smoke:
        setups = [
            spawn(workload, seed, 0, setup_only=True)["setup_s"]
            for _ in range(EXTRA_SETUPS)
        ]
    report = spawn(workload, seed, seconds, trace=trace, smoke=smoke, trace_out=trace_out)
    report["setup_samples"] = setups + [report["setup_s"]]
    return report


def golden_problem(report: dict, smoke: bool) -> Optional[str]:
    """Why ``report`` disagrees with ``goldens.json``, if it does."""
    if smoke or not GOLDENS.exists():
        return None
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    if report["seed"] != goldens["seed"]:
        return None
    if report["platform"] != goldens["platform"]:
        # Bit-exact floats depend on the BLAS kernels the CPU selects.
        print(f"note: goldens were recorded on {goldens['platform']!r}, this is "
              f"{report['platform']!r}; result_digest not compared", file=sys.stderr)
        return None
    expected = goldens["result_digest"].get(report["workload"])
    if expected != report["result_digest"]:
        return f"result_digest {report['result_digest']} is not the golden {expected}"
    return None


def end_to_end(reports: list[dict]) -> dict[str, dict]:
    """End-to-end metrics over the untraced reports of one workload.

    Timings are medians over the reports (each already a median over the
    passes of its run); the simulated columns must agree between reports.
    """
    def stat(values: list[float], unit: str) -> dict:
        return {"value": statistics.median(values), "unit": unit, "n": len(values),
                "min": min(values), "max": max(values)}

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {
        "setup_s": stat([s for r in reports for s in r["setup_samples"]], "s"),
        "wall_s": stat([r["wall_s"] for r in reports], "s"),
        "cpu_s": stat([r["cpu_s"] for r in reports], "s"),
        "rounds_per_s": stat([r["rounds_per_s"] for r in reports], "rounds/s"),
        "peak_rss_mb": stat([r["peak_rss_mb"] for r in reports], "MB"),
        "sim_wait_s": stat([r["sim_wait_s"] for r in reports], "sim_s"),
        "final_accuracy": stat([r["final_accuracy"] for r in reports], "fraction"),
        "completed_share": stat([1.0 - failed / attempted], "fraction"),
    }


def contract_line(report: dict, trace: int, benchmark: dict) -> dict:
    """The result object a measured run prints as its last line."""
    problems = list(report["problems"])
    golden = golden_problem(report, smoke=False)
    if golden:
        problems.append(golden)
    if trace:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        values = end_to_end([report])
        metrics = {m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
                   for m in benchmark["end_to_end"]}
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# The report for people
# ---------------------------------------------------------------------------


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(name: str, why: str, entry: dict) -> None:
    """Human table of one workload's metrics and trace health."""
    print(f"\n== {name} — {why}")
    if "error" in entry:
        print(f"  FAILED: {entry['error']}")
        return
    print(f"  ops attempted {entry['attempted']}, failed {entry['failed']}; "
          f"result_digest {entry['result_digest'][:16]}")
    print(f"  host ran {entry['host_slowdown']:.2f}x slower than the reference box; host times "
          f"below are reference seconds (measured wall_s {entry['measured_wall_s']:.3f})")
    print(f"  {'end-to-end metric':<28}{'value':>12} {'unit':<9}{'n':>3} {'min':>12} {'max':>12}")
    for metric, row in entry["end_to_end"].items():
        print(f"  {metric:<28}{_format(row['value']):>12} {row['unit']:<9}{row['n']:>3} "
              f"{_format(row['min']):>12} {_format(row['max']):>12}")
    layers = entry.get("layers")
    if layers:
        print(f"  {'per-layer metric (traced run)':<46}{'value':>14} unit")
        for metric, row in layers.items():
            print(f"  {metric:<46}{_format(row['value']):>14} {row['unit']}")
        gap = layers["trace.coverage_gap_share"]["value"]
        overhead = layers["trace.overhead_share"]["value"]
        if gap > MAX_COVERAGE_GAP:
            print(f"  WARNING: coverage gap {gap:.1%} is above {MAX_COVERAGE_GAP:.0%}")
        if overhead > MAX_OVERHEAD:
            print(f"  WARNING: tracing overhead {overhead:.1%} is above {MAX_OVERHEAD:.0%}")
        print("  largest self times of the last traced pass (all of them add up to "
              "scenarios.run.busy_s):")
        for span_name, seconds in list(entry["self_s"].items())[:10]:
            print(f"    {span_name:<44}{seconds:>10.4f} s")
    for problem in entry["problems"]:
        print(f"  PROBLEM: {problem}")


INTERACTION_NOTES = """
How the metrics interact:
- In-process workloads are single-threaded, so nothing overlaps: a layer's
  saving is bounded by its self_s share of the pass.
- In cohort25_mp2 a round waits for the slower of two workers, so
  runtime.wire.recv.wait_s falls only when the slowest shard gets faster;
  coordinator-side chain.gateway / chain.node time is serial for everyone.
- Counts (*.calls, network, scale and fault counters, fl.scoring.evaluations)
  must repeat exactly between runs at one seed: a count that moves is a
  behaviour change, not noise.
- Host seconds and simulated seconds (sim_s) are separate columns and are
  never combined."""


def run_workload(name: str, args: argparse.Namespace, seconds: float, units: dict) -> dict:
    """``--repeats`` untraced runs and one traced run of one workload."""
    # A smoke run takes its end-to-end columns from the traced run's own
    # untraced pass: it checks names and schema, not speed.
    repeats = 0 if args.smoke else args.repeats
    untraced = [measure(name, args.seed, seconds, 0) for _ in range(repeats)]
    traced = measure(name, args.seed, seconds, 1, args.smoke, args.trace_out)
    reports = untraced + [traced]
    problems = [p for r in reports for p in r["problems"]]
    for field in ("result_digest", "sim_wait_s", "final_accuracy"):
        if len({r[field] for r in reports}) > 1:
            problems.append(f"{field} differs between runs: {[r[field] for r in reports]}")
    golden = golden_problem(reports[0], args.smoke)
    if golden:
        problems.append(golden)
    return {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "result_digest": reports[0]["result_digest"],
        "equivalence_digest": reports[0]["equivalence_digest"],
        "end_to_end": end_to_end(untraced or [traced]),
        "host_slowdown": statistics.median(r["host_slowdown"] for r in untraced or [traced]),
        "measured_wall_s": statistics.median(r["measured_wall_s"] for r in untraced or [traced]),
        "layers": {n: {"value": traced["layers"][n], "unit": u} for n, u in units.items()},
        "self_s": traced["self_s"],
        "problems": problems,
    }


def write_goldens(names: list[str], seed: int) -> int:
    """Pin ``result_digest`` per workload; refuses unless two fresh runs agree."""
    digests = {}
    equivalence = {}
    platform = ""
    for name in names:
        first, second = (spawn(name, seed, 0) for _ in range(2))
        platform = first["platform"]
        if first["problems"] or first["result_digest"] != second["result_digest"]:
            print(f"{name}: two fresh runs disagree or report problems; goldens not written",
                  file=sys.stderr)
            return 1
        digests[name] = first["result_digest"]
        equivalence[name] = first["equivalence_digest"]
    if {"cohort25", "cohort25_mp2"} <= equivalence.keys() and (
        equivalence["cohort25"] != equivalence["cohort25_mp2"]
    ):
        print("cohort25_mp2 does not reproduce cohort25; goldens not written", file=sys.stderr)
        return 1
    GOLDENS.write_text(
        json.dumps({"seed": seed, "platform": platform, "result_digest": digests}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDENS}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="given: make one measured run and print its result object")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass: checks names and schema, not speed")
    parser.add_argument("--json", default=None, help="write the full report here")
    parser.add_argument("--trace-out", default=None, help="append the traced spans here (JSONL)")
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    whys = {w["name"]: w["why"] for w in benchmark["workloads"]}
    names = args.workload or list(whys)
    unknown = [name for name in names if name not in whys]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {list(whys)}")
    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else float(benchmark["run_seconds"])
    )

    if args.write_goldens:
        return write_goldens(list(whys), args.seed)

    if args.trace is not None:
        if len(names) != 1:
            parser.error("a measured run takes exactly one --workload")
        try:
            report = measure(names[0], args.seed, seconds, args.trace, trace_out=args.trace_out)
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        print(json.dumps(contract_line(report, args.trace, benchmark)))
        return 0

    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    print(f"seed {args.seed}; {args.repeats} untraced run(s) + 1 traced run per workload; "
          f"run length {seconds:g} s; pinned {PINNED_ENV}")
    entries: dict[str, dict] = {}
    for name in names:
        try:
            entries[name] = run_workload(name, args, seconds, units)
        except ChildFailed as exc:
            # The workload's row stays in the report, marked as failed.
            entries[name] = {"error": str(exc), "problems": [str(exc)]}
        print_workload(name, whys[name], entries[name])
    if {"cohort25", "cohort25_mp2"} <= entries.keys() and not any(
        "error" in entries[n] for n in ("cohort25", "cohort25_mp2")
    ):
        same = (entries["cohort25"]["equivalence_digest"]
                == entries["cohort25_mp2"]["equivalence_digest"])
        print(f"\ncohort25_mp2 reproduces cohort25's models, accuracies and waits: {same}")
        if not same:
            entries["cohort25_mp2"]["problems"].append("outputs differ from cohort25")
    print(INTERACTION_NOTES)
    if args.json:
        payload = {"seed": args.seed, "smoke": args.smoke, "run_seconds": seconds,
                   "repeats": args.repeats, "env": PINNED_ENV, "workloads": entries}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    failed = [name for name, entry in entries.items() if entry["problems"]]
    if failed:
        print(f"\nFAILED correctness check: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
