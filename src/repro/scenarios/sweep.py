"""Sweep driver: run grids of scenarios with shared datasets.

``grid`` derives spec variants along any dotted axis
(:func:`~repro.scenarios.spec.replace_axis`), ``run_grid`` executes them
through one shared :class:`~repro.scenarios.runner.ScenarioContext` (the
dataset factory, sampled splits, pretrained backbones and multiprocess
worker fleets are paid for once per distinct configuration, not once per
grid point), and
``cohort_sweep`` is the packaged 10-50-peer speed/precision measurement
the ROADMAP asks for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import product
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.fl.async_policy import AsyncPolicy
from repro.scenarios.registry import cohort_scenario
from repro.scenarios.runner import ScenarioContext, ScenarioResult, run_scenario
from repro.scenarios.spec import ScenarioSpec, replace_axis


@dataclass
class SweepPoint:
    """One executed grid point."""

    label: str
    spec: ScenarioSpec
    result: ScenarioResult
    wall_seconds: float

    def row(self) -> dict:
        """Summary row: the scenario digest plus wall-clock cost."""
        summary = self.result.summary()
        summary["scenario"] = self.label
        summary["wall_s"] = round(self.wall_seconds, 2)
        return summary


def grid(base: ScenarioSpec, axes: dict[str, Sequence[object]]) -> list[tuple[str, ScenarioSpec]]:
    """Cartesian product of axis values over ``base``.

    ``axes`` maps dotted axis paths to value lists, e.g.
    ``{"cohort.size": [10, 25, 50], "policy": [WaitForK(5), WaitForAll()]}``.
    Labels encode the coordinates (``cohort.size=10,policy=wait-for-5``).
    """
    if not axes:
        raise ConfigError("grid needs at least one axis")
    points: list[tuple[str, ScenarioSpec]] = []
    names = list(axes)
    for values in product(*(axes[name] for name in names)):
        spec = base
        parts = []
        for name, value in zip(names, values):
            spec = replace_axis(spec, name, value)
            shown = value.describe() if isinstance(value, AsyncPolicy) else value
            parts.append(f"{name}={shown}")
        points.append((",".join(parts), spec))
    return points


def run_grid(
    points: Sequence[tuple[str, ScenarioSpec]],
    context: Optional[ScenarioContext] = None,
) -> list[SweepPoint]:
    """Execute labelled specs sequentially through one shared context
    (one of its own, closed before this returns, if none is given)."""
    if context is None:
        with ScenarioContext() as ctx:
            return run_grid(points, ctx)
    executed = []
    for label, spec in points:
        start = time.perf_counter()
        result = run_scenario(spec, context=context)
        executed.append(
            SweepPoint(
                label=label,
                spec=spec,
                result=result,
                wall_seconds=time.perf_counter() - start,
            )
        )
    return executed


def sweep_axis(
    base: ScenarioSpec,
    axis: str,
    values: Sequence[object],
    context: Optional[ScenarioContext] = None,
) -> list[SweepPoint]:
    """One-axis convenience wrapper over :func:`grid` + :func:`run_grid`."""
    return run_grid(grid(base, {axis: list(values)}), context=context)


def cohort_sweep(
    sizes: Sequence[int],
    base: Optional[ScenarioSpec] = None,
    seed: int = 42,
    quick: bool = False,
    policy: Optional[AsyncPolicy] = None,
    context: Optional[ScenarioContext] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> list[dict]:
    """The ROADMAP measurement: speed/precision rows per cohort size.

    Each row reports the cohort size, waiting policy, mean per-peer wait
    (simulated seconds), cohort-mean final accuracy, mean adopted-
    combination size, and wall-clock cost.  All sizes share one
    :class:`ScenarioContext`.  ``overrides`` maps dotted axes
    (:func:`~repro.scenarios.spec.replace_axis`) to values applied to the
    template before the sizes fan out — ``{"chain.gateway": "batching"}``,
    ``{"runtime": "multiprocess", "runtime_workers": 4}`` (rows identical
    at any backend, runtime or worker count), or
    ``{"participation.sampled_k": k}`` to sweep under k-of-n client
    sampling (every size must admit k peers).
    """
    if not sizes:
        raise ConfigError("cohort_sweep needs at least one size")
    template = base if base is not None else cohort_scenario(min(sizes), seed=seed)
    if policy is not None:
        template = replace(template, policy=policy)
    for axis, value in (overrides or {}).items():
        template = replace_axis(template, axis, value)
    if quick:
        template = template.quick()
    points = grid(template, {"cohort.size": list(sizes)})
    rows = []
    for point in run_grid(points, context=context):
        result = point.result
        rows.append(
            {
                "cohort": result.spec.cohort.size,
                "policy": result.spec.policy.describe(),
                "mean_wait_s": round(result.mean_wait(), 2),
                "final_accuracy": round(result.mean_final_accuracy(), 6),
                "mean_models_used": round(
                    float(np.mean([log.models_used for log in result.round_logs])), 2
                ),
                "wall_s": round(point.wall_seconds, 2),
            }
        )
    return rows
