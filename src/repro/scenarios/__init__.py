"""Declarative scenario API — one entry point for every workload.

Compose a :class:`ScenarioSpec` (cohort, adversary, heterogeneity, chain,
policy, mode, selection axes), run it with :func:`run_scenario`, or run a
registered name (``paper/table1``, ``cohort/25``, ``adversarial/label_flip``,
…) via :func:`get_scenario`.  Grids over any axis run through the sweep
driver (:func:`grid` / :func:`run_grid` / :func:`cohort_sweep`) with
datasets shared across points.

Quick taste::

    from repro.scenarios import ScenarioSpec, CohortSpec, AdversarySpec, run_scenario

    spec = ScenarioSpec(
        cohort=CohortSpec(size=10, train_samples=200, test_samples=150),
        adversary=AdversarySpec(kind="label_flip", fraction=0.2),
        rounds=3,
    )
    result = run_scenario(spec)
    print(result.summary())
"""

from repro.core.participation import ParticipationSpec
from repro.faults import FaultSpec
from repro.scenarios.spec import (
    AdversarySpec,
    ChainSpec,
    CohortSpec,
    HeterogeneitySpec,
    PAPER_CLIENT_IDS,
    ScenarioSpec,
    default_client_ids,
    replace_axis,
)
from repro.scenarios.runner import ScenarioContext, ScenarioResult, run_scenario
from repro.scenarios.registry import (
    ScenarioDefinition,
    cohort_scenario,
    fault_scenario,
    get_scenario,
    list_scenarios,
    paper_spec,
    register_scenario,
)
from repro.scenarios.sweep import SweepPoint, cohort_sweep, grid, run_grid

__all__ = [
    "AdversarySpec",
    "ChainSpec",
    "CohortSpec",
    "FaultSpec",
    "HeterogeneitySpec",
    "PAPER_CLIENT_IDS",
    "ParticipationSpec",
    "ScenarioContext",
    "ScenarioDefinition",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepPoint",
    "cohort_scenario",
    "cohort_sweep",
    "default_client_ids",
    "fault_scenario",
    "get_scenario",
    "grid",
    "list_scenarios",
    "paper_spec",
    "register_scenario",
    "replace_axis",
    "run_grid",
    "run_scenario",
]
