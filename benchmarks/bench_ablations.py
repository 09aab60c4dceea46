"""Design-choice ablations (DESIGN.md §5).

A1 — combination search at larger cohorts (the paper's future work on "the
impact of an arbitrary number of local updates"): exhaustive enumeration is
O(2^n) model evaluations; greedy forward selection is O(n^2).  The bench
compares both on a 6-client cohort: accuracy achieved and evaluations
spent.

A2 — operating mode: personalized combination aggregation vs the on-chain
global-vote mode (§III-B's two options).  Both should reach comparable
accuracy; global-vote trades personalization for a single canonical model
and adds the vote-finalization latency.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec, client_class_probs
from repro.fl.aggregation import ModelUpdate
from repro.fl.selection import best_combination, greedy_combination
from repro.fl.trainer import LocalTrainer, TrainConfig
from repro.metrics.tables import render_table
from repro.nn.models import build_simple_nn
from repro.scenarios import CohortSpec, ScenarioSpec, run_scenario
from repro.utils.rng import RngFactory

_CACHE: dict = {}


def _three_peer_spec(mode: str = "personalized", label_skew: float = 1.0) -> ScenarioSpec:
    """The A2/A3 deployment: 3 peers, 3 rounds of 3 epochs, 400-sample splits."""
    return ScenarioSpec(
        model_kind="simple_nn",
        rounds=3,
        local_epochs=3,
        learning_rate=0.008,
        seed=5,
        mode=mode,
        cohort=CohortSpec(train_samples=400, test_samples=300, label_skew=label_skew),
        aggregator_test_samples=300,
    )


def _six_client_updates():
    """Six trained updates over skewed slices of the calibrated dataset."""
    if "updates" in _CACHE:
        return _CACHE["updates"], _CACHE["scratch"], _CACHE["test"]
    spec = SyntheticSpec()
    factory = SyntheticImageDataset(spec)
    rngs = RngFactory(99)
    client_ids = [f"c{i}" for i in range(6)]
    updates = []
    for index, client_id in enumerate(client_ids):
        probs = client_class_probs(index, len(client_ids), skew=2.0)
        train = factory.sample(400, rngs.get("train", client_id), class_probs=probs)
        model = build_simple_nn(np.random.default_rng(42))
        trainer = LocalTrainer(
            TrainConfig(epochs=3, learning_rate=0.008), rng=rngs.get("fit", client_id)
        )
        trainer.train(model, train)
        updates.append(
            ModelUpdate(client_id=client_id, weights=model.get_weights(), num_samples=400)
        )
    scratch = build_simple_nn(np.random.default_rng(42))
    test: Dataset = factory.sample(400, rngs.get("test"))
    _CACHE.update(updates=updates, scratch=scratch, test=test)
    return updates, scratch, test


def test_a1_greedy_vs_exhaustive(benchmark):
    """A1: greedy forward selection vs exhaustive enumeration at n=6."""

    def run():
        updates, scratch, test = _six_client_updates()
        exhaustive = best_combination(updates, scratch, test)
        greedy = greedy_combination(updates, scratch, test)
        return {
            "exhaustive_acc": exhaustive.accuracy,
            "exhaustive_evals": 2 ** len(updates) - 1,
            "greedy_acc": greedy.accuracy,
            "greedy_evals": len(updates) ** 2,  # upper bound on evaluations
            "exhaustive_members": exhaustive.label,
            "greedy_members": greedy.label,
        }

    result = run_once(benchmark, run)
    print()
    print(
        render_table(
            "A1: combination search at 6 clients",
            ["search", "accuracy", "model evals", "chosen"],
            [
                [
                    "exhaustive",
                    f"{result['exhaustive_acc']:.4f}",
                    str(result["exhaustive_evals"]),
                    result["exhaustive_members"],
                ],
                [
                    "greedy",
                    f"{result['greedy_acc']:.4f}",
                    f"<= {result['greedy_evals']}",
                    result["greedy_members"],
                ],
            ],
        )
    )
    # Greedy is near-optimal at a fraction of the evaluations.
    assert result["greedy_acc"] >= result["exhaustive_acc"] - 0.02
    assert result["greedy_evals"] < result["exhaustive_evals"]


def _mode_run(mode: str):
    key = f"mode-{mode}"
    if key not in _CACHE:
        _CACHE[key] = run_scenario(_three_peer_spec(mode=mode))
    return _CACHE[key]


def test_a2_global_vote_vs_personalized(benchmark):
    """A2: the two operating modes reach comparable accuracy."""

    def run():
        personalized = _mode_run("personalized")
        global_vote = _mode_run("global_vote")
        return {
            "personalized_acc": float(
                np.mean([log.chosen_accuracy for log in personalized.round_logs[-3:]])
            ),
            "global_acc": float(
                np.mean([log.chosen_accuracy for log in global_vote.round_logs[-3:]])
            ),
            "personalized_time": float(
                np.mean([log.aggregated_at - log.submitted_at for log in personalized.round_logs])
            ),
            "global_time": float(
                np.mean([log.aggregated_at - log.submitted_at for log in global_vote.round_logs])
            ),
        }

    result = run_once(benchmark, run)
    print()
    print(
        render_table(
            "A2: personalized vs global-vote mode",
            ["mode", "final acc", "mean submit->adopt (sim s)"],
            [
                [
                    "personalized",
                    f"{result['personalized_acc']:.4f}",
                    f"{result['personalized_time']:.1f}",
                ],
                ["global_vote", f"{result['global_acc']:.4f}", f"{result['global_time']:.1f}"],
            ],
        )
    )
    assert abs(result["personalized_acc"] - result["global_acc"]) < 0.1
    # Voting adds at least the extra mining latency of the vote txs.
    assert result["global_time"] >= result["personalized_time"]


def _skew_run(skew: float):
    key = f"skew-{skew}"
    if key not in _CACHE:
        _CACHE[key] = run_scenario(_three_peer_spec(label_skew=skew))
    return _CACHE[key]


def test_a3_heterogeneity_sweep(benchmark):
    """A3: data heterogeneity drives the solo-vs-combination gap.

    The paper attributes abnormal models to "the natural data heterogeneity
    across clients".  Sweeping the per-client label skew shows the
    mechanism: with IID data a solo model is nearly as good as the full
    combination; as skew grows, solo models tilt toward their local priors
    and the combination advantage widens.
    """

    def run():
        rows = []
        for skew in (0.0, 1.0, 3.0):
            result = _skew_run(skew)
            gaps = []
            for peer_id in ("A", "B", "C"):
                table = result.combination_accuracy[peer_id]
                gaps.append(np.mean(np.array(table["A,B,C"]) - np.array(table[peer_id])))
            rows.append({"skew": skew, "mean_gap": float(np.mean(gaps))})
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        render_table(
            "A3: heterogeneity vs combination advantage (SimpleNN)",
            ["client skew", "mean(full - solo) accuracy gap"],
            [[f"{row['skew']:.1f}", f"{row['mean_gap']:+.4f}"] for row in rows],
        )
    )
    # The combination advantage grows with heterogeneity.
    assert rows[-1]["mean_gap"] > rows[0]["mean_gap"]
