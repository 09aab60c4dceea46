"""The six benchmark workloads, as generated ``ScenarioSpec`` inputs.

Every spec is built through the public scenario API (``cohort_scenario``,
``paper_spec``, ``dataclasses.replace``); the program under test receives
only these specs.

``--seed`` selects the synthetic dataset domain (``data_spec.seed``: class
prototypes and renderer).  The simulator's own seed stays at
:data:`SIM_SEED`, so the simulated timeline — device speeds, PoW draws,
gossip latency, fault and churn plans — is the same run at every seed and
only the learning problem changes.  Varying the simulator seed instead
moves the simulated wait by 20-30 % between seeds (one exponential block
interval is a third of a round's wait), which would drown any bound the
end-to-end metrics could carry.

Rounds are cut from the registry defaults so that one pass over a workload
takes 3-7 s and a 12 s run measures several passes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.fl.async_policy import WaitForAll, WaitForK
from repro.scenarios import (
    FaultSpec,
    HeterogeneitySpec,
    ParticipationSpec,
    ScenarioSpec,
    cohort_scenario,
    paper_spec,
)

#: Seed of the program's own random streams, fixed across benchmark seeds.
SIM_SEED = 42

#: Paper models, in the paper's table order.
PAPER_MODELS = ("simple_nn", "efficientnet_b0_sim")


def _paper3_tradeoff(smoke: bool) -> list[ScenarioSpec]:
    return [
        replace(
            paper_spec(
                model_kind,
                seed=SIM_SEED,
                policy=policy,
                heterogeneity=HeterogeneitySpec(kind="custom", times=(20.0, 60.0, 150.0)),
            ),
            rounds=2,
        )
        for model_kind in PAPER_MODELS
        for policy in (WaitForK(1), WaitForK(2), WaitForAll())
    ]


def _cohort9_exhaustive(smoke: bool) -> list[ScenarioSpec]:
    size = 4 if smoke else 9
    return [replace(cohort_scenario(size, seed=SIM_SEED), selection="exhaustive", rounds=1)]


def _cohort25(smoke: bool) -> list[ScenarioSpec]:
    # Seven peers is the smallest cohort above ``exhaustive_limit``, so the
    # smoke size still takes the greedy path.
    return [replace(cohort_scenario(7 if smoke else 25, seed=SIM_SEED), rounds=1)]


def _cohort25_mp2(smoke: bool) -> list[ScenarioSpec]:
    return [
        replace(spec, runtime="multiprocess", runtime_workers=2)
        for spec in _cohort25(smoke)
    ]


def _roster300_churn(smoke: bool) -> list[ScenarioSpec]:
    roster, sampled = (24, 4) if smoke else (300, 15)
    spec = cohort_scenario(roster, seed=SIM_SEED, sampled_k=sampled)
    return [
        replace(
            spec,
            rounds=2,
            participation=ParticipationSpec(sampled_k=sampled, churn_rate=0.2),
            chain=replace(
                spec.chain,
                cold_storage=True,
                hot_window=8,
                execution="parallel",
                parallel_min_txs=8 if smoke else 32,
                snapshot_interval=16,
            ),
        )
    ]


def _cohort25_lossy(smoke: bool) -> list[ScenarioSpec]:
    spec = cohort_scenario(7 if smoke else 25, seed=SIM_SEED)
    return [
        replace(
            spec,
            rounds=2,
            faults=FaultSpec(
                transient_rate=0.05,
                timeout_rate=0.02,
                latency_rate=0.1,
                latency_spike=5.0,
                crash_fraction=0.2,
                crash_round=1,
                crash_rounds=1,
            ),
            chain=replace(spec.chain, drop_rate=0.1),
        )
    ]


#: name -> builder taking ``smoke``; why each exists is recorded in
#: ``BENCHMARK.json`` and README.md.
WORKLOADS: dict[str, Callable[[bool], list[ScenarioSpec]]] = {
    "paper3_tradeoff": _paper3_tradeoff,
    "cohort9_exhaustive": _cohort9_exhaustive,
    "cohort25": _cohort25,
    "cohort25_mp2": _cohort25_mp2,
    "roster300_churn": _roster300_churn,
    "cohort25_lossy": _cohort25_lossy,
}


def build_specs(name: str, seed: int, smoke: bool = False) -> list[ScenarioSpec]:
    """The specs workload ``name`` runs at benchmark seed ``seed``.

    A smoke build also takes each spec's ``quick()`` variant (one local
    epoch, small splits).
    """
    return [
        replace(spec.quick() if smoke else spec, data_spec=replace(spec.data_spec, seed=seed))
        for spec in WORKLOADS[name](smoke)
    ]
