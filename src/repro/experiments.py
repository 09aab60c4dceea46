"""Command-line scenario runner: one declarative entry point per workload.

Usage::

    python -m repro.experiments list                  # registered scenarios
    python -m repro.experiments run paper/table1      # any scenario by name
    python -m repro.experiments run cohort/25 --quick
    python -m repro.experiments run adversarial/label_flip --seed 7
    python -m repro.experiments sweep cohort --sizes 10 25 50

``run`` executes a named scenario from the registry
(:mod:`repro.scenarios.registry`) — the paper's artifacts
(``paper/table1``, ``paper/tables234``, ``paper/fig3``, ``paper/fig4``,
``paper/tradeoff``), cohort-scaling workloads (any ``cohort/<n>``),
adversarial and heterogeneous-device setups — and prints its rendered
report.  ``sweep`` drives grids through the shared-dataset sweep driver
(:mod:`repro.scenarios.sweep`); the ``cohort`` axis is the ROADMAP's
10-50-peer speed/precision measurement.  Results are deterministic per
``--seed``; ``--quick`` shrinks any scenario to test scale.  ``run``,
``sweep`` and ``list`` are the whole interface.
"""

from __future__ import annotations

import argparse
import sys

from repro.chain.gateway import GATEWAY_BACKENDS
from repro.errors import ConfigError
from repro.fl.async_policy import WaitForK
from repro.metrics.tables import format_sweep_table, render_table
from repro.scenarios import (
    ScenarioContext,
    cohort_sweep,
    get_scenario,
    list_scenarios,
    replace_axis,
    run_scenario,
)
from repro.scenarios.registry import PAPER_MODELS
from repro.scenarios.spec import RUNTIME_KINDS

#: ``run``/``sweep`` override flags, wired once: flag -> (the
#: :func:`~repro.scenarios.spec.replace_axis` path it sets, its argparse
#: keywords).  Each is a pure resource/transport knob — results are
#: byte-identical at any value — except ``--sampled-k``, which changes who
#: trains.  A flag left out, or given as ``0``, leaves the scenario's own
#: value alone.
AXIS_FLAGS: dict[str, tuple[str, dict]] = {
    "--gateway": (
        "chain.gateway",
        dict(
            choices=list(GATEWAY_BACKENDS),
            help="ledger gateway backend (batching coalesces reads; results identical)",
        ),
    ),
    "--runtime": (
        "runtime",
        dict(
            choices=list(RUNTIME_KINDS),
            help="cohort process topology (multiprocess is byte-identical to inprocess)",
        ),
    ),
    "--runtime-workers": (
        "runtime_workers",
        dict(type=int, help="worker processes for --runtime multiprocess (default 2)"),
    ),
    "--sampled-k": (
        "participation.sampled_k",
        dict(
            type=int,
            help="train a sampled k-peer subcohort per round (0 = full participation)",
        ),
    ),
    "--execution": (
        "chain.execution",
        dict(
            choices=["serial", "parallel"],
            help="block transaction execution mode (parallel is byte-identical to serial)",
        ),
    ),
    "--cold-storage": (
        "chain.cold_storage",
        dict(
            action="store_true",
            help="spill old blocks/receipts to a shared cold store (results identical)",
        ),
    ),
}

#: The flags ``sweep`` shares with ``run`` (which takes all of them).
SWEEP_FLAGS = ("--gateway", "--runtime", "--runtime-workers", "--sampled-k")


def _axis_overrides(args: argparse.Namespace) -> dict[str, object]:
    """The ``axis -> value`` overrides the parsed flags ask for."""
    overrides = {}
    for flag, (axis, _keywords) in AXIS_FLAGS.items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value:
            overrides[axis] = value
    return overrides


def _apply_overrides(specs, overrides: dict[str, object]) -> tuple:
    """``specs`` with every override applied to the decentralized ones
    (vanilla specs have no chain, cohort sampling or combination search)."""
    applied = []
    for spec in specs:
        if spec.kind == "decentralized":
            for axis, value in overrides.items():
                spec = replace_axis(spec, axis, value)
        applied.append(spec)
    return tuple(applied)


def _run_named_scenario(
    name: str, seed: int, quick: bool, model: str | None, overrides: dict[str, object]
) -> int:
    models = None
    if model is not None:
        models = PAPER_MODELS if model == "both" else (model,)
    try:
        definition = get_scenario(name)
        specs = _apply_overrides(
            definition.build(seed=seed, quick=quick, models=models), overrides
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with ScenarioContext() as context:
        results = [run_scenario(spec, context=context) for spec in specs]
    for block in definition.render(specs, results):
        print(block)
        print()
    return 0


def _run_sweep(
    sizes: list[int], wait_for: int | None, seed: int, quick: bool, overrides: dict[str, object]
) -> int:
    try:
        policy = WaitForK(wait_for) if wait_for is not None else None
        rows = cohort_sweep(sizes, seed=seed, quick=quick, policy=policy, overrides=overrides)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_sweep_table("Cohort scaling sweep (speed vs precision)", rows))
    return 0


def _run_list() -> int:
    rows = [[definition.name, definition.description] for definition in list_scenarios()]
    rows.append(["cohort/<n>", "any cohort size n >= 2 resolves dynamically"])
    rows.append(
        ["cohort/<n>/sampled/<k>", "cohort/<n> with k-of-n client sampling per round"]
    )
    print(render_table("Registered scenarios", ["name", "description"], rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    model_choices = ["simple_nn", "efficientnet_b0_sim", "both"]
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run declarative scenarios (and regenerate the paper's artifacts).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a named scenario from the registry")
    run_parser.add_argument("scenario", help="scenario name, e.g. paper/table1 or cohort/25")
    run_parser.add_argument("--seed", type=int, default=42, help="experiment seed (default 42)")
    run_parser.add_argument(
        "--quick", action="store_true", help="shrink to test scale (2 rounds, small splits)"
    )
    run_parser.add_argument(
        "--model",
        choices=model_choices,
        default=None,
        help="override the scenario's model families",
    )
    for flag, (_axis, keywords) in AXIS_FLAGS.items():
        run_parser.add_argument(flag, **keywords)

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep a scenario axis through the shared-dataset driver"
    )
    sweep_parser.add_argument("axis", choices=["cohort"], help="axis to sweep")
    sweep_parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 25, 50], help="cohort sizes"
    )
    sweep_parser.add_argument(
        "--wait-for", type=int, default=None, help="use wait-for-k instead of wait-for-all"
    )
    sweep_parser.add_argument("--seed", type=int, default=42, help="experiment seed (default 42)")
    sweep_parser.add_argument("--quick", action="store_true", help="shrink to test scale")
    for flag in SWEEP_FLAGS:
        sweep_parser.add_argument(flag, **AXIS_FLAGS[flag][1])

    subparsers.add_parser("list", help="list registered scenarios")

    args = parser.parse_args(argv)

    if args.command == "run":
        return _run_named_scenario(
            args.scenario, args.seed, args.quick, args.model, _axis_overrides(args)
        )
    if args.command == "sweep":
        # Only the "cohort" axis exists today; argparse restricts the choice.
        return _run_sweep(
            args.sizes, args.wait_for, args.seed, args.quick, _axis_overrides(args)
        )
    return _run_list()


if __name__ == "__main__":
    sys.exit(main())
